package trace

import (
	"bytes"
	"strings"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

func TestSliceReader(t *testing.T) {
	recs := []Record{
		{Time: 1, Kind: disk.Read, Extent: geom.Ext(0, 8)},
		{Time: 2, Kind: disk.Write, Extent: geom.Ext(8, 8)},
	}
	r := NewSliceReader(recs)
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("ReadAll = %v", got)
	}
	if _, ok := r.Next(); ok {
		t.Error("exhausted reader should return false")
	}
}

func TestMaxLBA(t *testing.T) {
	recs := []Record{
		{Extent: geom.Ext(100, 8)},
		{Extent: geom.Ext(0, 50)},
	}
	if got := MaxLBA(recs); got != 108 {
		t.Errorf("MaxLBA = %d, want 108", got)
	}
	if got := MaxLBA(nil); got != 0 {
		t.Errorf("MaxLBA(nil) = %d", got)
	}
}

func TestWriteFootprint(t *testing.T) {
	recs := []Record{
		{Kind: disk.Write, Extent: geom.Ext(0, 10)},
		{Kind: disk.Write, Extent: geom.Ext(5, 10)},   // overlaps: +5
		{Kind: disk.Write, Extent: geom.Ext(15, 4)},   // adjacent: +4
		{Kind: disk.Read, Extent: geom.Ext(100, 500)}, // reads do not count
		{Kind: disk.Write, Extent: geom.Ext(1000, 0)}, // empty
	}
	if got := WriteFootprint(recs); got != 19 {
		t.Errorf("WriteFootprint = %d, want 19", got)
	}
	if got := WriteFootprint(nil); got != 0 {
		t.Errorf("WriteFootprint(nil) = %d", got)
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Time: 5, Kind: disk.Write, Extent: geom.Ext(1, 2)}
	if got := r.String(); got != "5 write [1,3)" {
		t.Errorf("String = %q", got)
	}
}

const msrSample = `128166372003061629,hm,1,Read,383496192,32768,41286
128166372016382155,hm,1,Write,2822144,4096,584
# comment line

128166372026382245,hm,0,Read,0,512,100
128166372036382255,hm,1,Write,1024,0,100
`

func TestMSRReaderParsesAndFilters(t *testing.T) {
	r := NewMSRReader(strings.NewReader(msrSample), 1)
	recs, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	// disk 0 record filtered out; zero-size write dropped.
	if len(recs) != 2 {
		t.Fatalf("got %d records: %v", len(recs), recs)
	}
	if recs[0].Kind != disk.Read || recs[0].Extent != geom.Ext(383496192/512, 32768/512) {
		t.Errorf("rec0 = %v", recs[0])
	}
	// MSR FILETIME stamps are rebased to the first record.
	if recs[0].Time != 0 {
		t.Errorf("rec0 time = %d, want 0", recs[0].Time)
	}
	if want := int64(128166372016382155-128166372003061629) * 100; recs[1].Time != want {
		t.Errorf("rec1 time = %d, want %d", recs[1].Time, want)
	}
	if recs[1].Kind != disk.Write {
		t.Errorf("rec1 = %v", recs[1])
	}
}

func TestMSRReaderAllDisks(t *testing.T) {
	r := NewMSRReader(strings.NewReader(msrSample), -1)
	recs, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestMSRReaderUnalignedRoundsOutward(t *testing.T) {
	in := "1,host,0,Read,100,512,0\n" // offset 100, 512 bytes → sectors [0,2)
	recs, err := ReadAll(NewMSRReader(strings.NewReader(in), -1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Extent != geom.Ext(0, 2) {
		t.Fatalf("recs = %v", recs)
	}
}

func TestMSRReaderErrors(t *testing.T) {
	cases := []string{
		"notanumber,h,0,Read,0,512,0\n",
		"1,h,x,Read,0,512,0\n",
		"1,h,0,Frobnicate,0,512,0\n",
		"1,h,0,Read,-4,512,0\n",
		"1,h,0,Read,abc,512,0\n",
		"1,h,0,Read,0,abc,0\n",
		"too,few\n",
	}
	for _, in := range cases {
		r := NewMSRReader(strings.NewReader(in), -1)
		if _, ok := r.Next(); ok {
			t.Errorf("input %q should not yield a record", in)
			continue
		}
		if r.Err() == nil {
			t.Errorf("input %q should produce an error", in)
		}
	}
}

func TestMSRRoundTrip(t *testing.T) {
	recs := []Record{
		{Time: 100, Kind: disk.Read, Extent: geom.Ext(10, 8)},
		{Time: 200, Kind: disk.Write, Extent: geom.Ext(100, 16)},
	}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, "test", 0, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewMSRReader(&buf, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %v", got)
	}
	for i := range recs {
		// Times come back rebased to the first record; extents and kinds
		// survive exactly.
		want := recs[i]
		want.Time -= recs[0].Time
		if got[i] != want {
			t.Errorf("rec %d: %v != %v", i, got[i], want)
		}
	}
}

func TestCPRoundTrip(t *testing.T) {
	recs := []Record{
		{Time: 100, Kind: disk.Read, Extent: geom.Ext(10, 8)},
		{Time: 200, Kind: disk.Write, Extent: geom.Ext(100, 16)},
	}
	var buf bytes.Buffer
	if err := WriteCP(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), CPHeader) {
		t.Error("missing header comment")
	}
	got, err := ReadAll(NewCPReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %v", got)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("rec %d: %v != %v", i, got[i], recs[i])
		}
	}
}

func TestCPReaderErrors(t *testing.T) {
	cases := []string{
		"1,X,0,8\n",
		"x,R,0,8\n",
		"1,R,x,8\n",
		"1,R,0,x\n",
		"1,R,-1,8\n",
		"1,R,0\n",
	}
	for _, in := range cases {
		r := NewCPReader(strings.NewReader(in))
		if _, ok := r.Next(); ok {
			t.Errorf("input %q should not parse", in)
			continue
		}
		if r.Err() == nil {
			t.Errorf("input %q should error", in)
		}
	}
	// Zero-length records are skipped, not errors.
	r := NewCPReader(strings.NewReader("1,R,0,0\n2,W,5,5\n"))
	recs, err := ReadAll(r)
	if err != nil || len(recs) != 1 {
		t.Errorf("recs=%v err=%v", recs, err)
	}
}

func TestCharacterize(t *testing.T) {
	recs := []Record{
		{Kind: disk.Read, Extent: geom.Ext(0, 8)},     // 4 KB read
		{Kind: disk.Write, Extent: geom.Ext(8, 16)},   // 8 KB write
		{Kind: disk.Write, Extent: geom.Ext(100, 32)}, // 16 KB write
	}
	c := Characterize(recs)
	if c.ReadCount != 1 || c.WriteCount != 2 || c.Ops != 3 {
		t.Errorf("counts: %+v", c)
	}
	if c.ReadBytes != 8*512 || c.WrittenBytes != 48*512 {
		t.Errorf("volumes: %+v", c)
	}
	if c.MeanWriteKB != 12 {
		t.Errorf("MeanWriteKB = %v, want 12", c.MeanWriteKB)
	}
	if c.MeanReadKB != 4 {
		t.Errorf("MeanReadKB = %v, want 4", c.MeanReadKB)
	}
	if c.MaxLBA != 132 {
		t.Errorf("MaxLBA = %d", c.MaxLBA)
	}
	wi := c.WriteIntensity()
	if wi < 0.66 || wi > 0.67 {
		t.Errorf("WriteIntensity = %v", wi)
	}
	empty := Characterize(nil)
	if empty.WriteIntensity() != 0 || empty.MeanWriteKB != 0 {
		t.Error("empty characterize should be zeros")
	}
	if empty.ReadGB() != 0 || empty.WrittenGB() != 0 {
		t.Error("GB conversions of empty should be 0")
	}
}
