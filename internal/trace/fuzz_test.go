package trace

import (
	"bytes"
	"math"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// checkFuzzedRecord asserts the structural guarantees every parser must
// uphold no matter what bytes it was fed: extents are valid, non-empty
// (empty I/Os are dropped, not returned), and their end does not wrap.
func checkFuzzedRecord(t *testing.T, rec Record) {
	t.Helper()
	if rec.Extent.Start < 0 || rec.Extent.Count <= 0 {
		t.Fatalf("parser returned invalid extent %+v", rec.Extent)
	}
	if rec.Extent.Start > math.MaxInt64-rec.Extent.Count {
		t.Fatalf("parser returned overflowing extent %+v", rec.Extent)
	}
	if rec.Kind != disk.Read && rec.Kind != disk.Write {
		t.Fatalf("parser returned unknown op kind %v", rec.Kind)
	}
}

func FuzzParseMSR(f *testing.F) {
	f.Add([]byte("128166372003061629,hm,1,Read,383496192,32768,41116\n"))
	f.Add([]byte("0,hm,0,Write,0,512,0\n"))
	f.Add([]byte("# comment\n\n1,h,2,read,1,1,0\n"))
	f.Add([]byte("1,h,2,Read,9223372036854775807,9223372036854775807,0\n"))
	f.Add([]byte("1,h,2,Read,-5,10,0\n"))
	f.Add([]byte("not,a,valid,line\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, filter := range []int{-1, 0} {
			r := NewMSRReader(bytes.NewReader(data), filter)
			for {
				rec, ok := r.Next()
				if !ok {
					break
				}
				checkFuzzedRecord(t, rec)
				// MSR extents come from byte ranges rounded outward to
				// whole sectors, so End is bounded well below overflow.
				if rec.Extent.End() > math.MaxInt64/geom.SectorSize+2 {
					t.Fatalf("extent %+v beyond addressable bytes", rec.Extent)
				}
			}
			// Err is sticky: after a reported failure Next stays false.
			if r.Err() != nil {
				if _, ok := r.Next(); ok {
					t.Fatal("Next returned a record after Err")
				}
			}
		}
	})
}

func FuzzParseCloudPhysics(f *testing.F) {
	f.Add([]byte(CPHeader + "\n100,R,2048,8\n200,W,0,1\n"))
	f.Add([]byte("0,r,0,0\n1,w,5,5\n"))
	f.Add([]byte("1,R,9223372036854775807,2\n"))
	f.Add([]byte("1,X,0,1\n"))
	f.Add([]byte("1,R,-1,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewCPReader(bytes.NewReader(data))
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			checkFuzzedRecord(t, rec)
		}
		if r.Err() != nil {
			if _, ok := r.Next(); ok {
				t.Fatal("Next returned a record after Err")
			}
		}
	})
}

func FuzzParseBinary(f *testing.F) {
	seeds := [][]Record{
		nil,
		{{Time: 100, Kind: disk.Read, Extent: geom.Ext(2048, 8)}, {Time: 200, Kind: disk.Write, Extent: geom.Ext(0, 1)}},
		{{Kind: disk.Write, Extent: geom.Ext(1<<40, 1<<20)}, {Kind: disk.Read, Extent: geom.Ext(5, 5)}},
		{{Kind: disk.Read, Extent: geom.Extent{Start: math.MaxInt64 - 10, Count: 100}}},
	}
	for _, recs := range seeds {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewBinaryReader(bytes.NewReader(data))
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			checkFuzzedRecord(t, rec)
		}
		if r.Err() != nil {
			if _, ok := r.Next(); ok {
				t.Fatal("Next returned a record after Err")
			}
		}
	})
}

// TestParserOverflowGuards pins the overflow rejections the fuzzers rely
// on: ranges that would wrap int64 are parse errors, not panics.
func TestParserOverflowGuards(t *testing.T) {
	msr := NewMSRReader(bytes.NewReader(
		[]byte("1,h,0,Read,9223372036854775807,9223372036854775807,0\n")), -1)
	if _, ok := msr.Next(); ok || msr.Err() == nil {
		t.Errorf("MSR overflow line: ok=%v err=%v, want rejection", ok, msr.Err())
	}
	cp := NewCPReader(bytes.NewReader([]byte("1,R,9223372036854775807,2\n")))
	if _, ok := cp.Next(); ok || cp.Err() == nil {
		t.Errorf("CP overflow line: ok=%v err=%v, want rejection", ok, cp.Err())
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, []Record{{Kind: disk.Read, Extent: geom.Extent{Start: math.MaxInt64 - 10, Count: 100}}}); err != nil {
		t.Fatal(err)
	}
	br := NewBinaryReader(&bin)
	if rec, ok := br.Next(); ok || br.Err() == nil {
		t.Errorf("binary overflow record: %+v ok=%v err=%v, want rejection", rec.Extent, ok, br.Err())
	}
}
