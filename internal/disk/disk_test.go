package disk

import (
	"testing"
	"time"

	"smrseek/internal/geom"
)

// recorded is a Disk whose accesses a test reads back through an
// observer, the only reader of an access's outcome.
type recorded struct {
	*Disk
	seen []Access
}

func newRecorded() *recorded {
	r := &recorded{Disk: New()}
	r.AddObserver(r)
	return r
}

func (r *recorded) ObserveAccess(a Access) { r.seen = append(r.seen, a) }

// read and write perform one access and return what the observer saw
// for it, or the zero Access when it saw nothing.
func (r *recorded) read(ext geom.Extent) Access  { return r.do(Read, ext) }
func (r *recorded) write(ext geom.Extent) Access { return r.do(Write, ext) }

func (r *recorded) do(kind OpKind, ext geom.Extent) Access {
	n := len(r.seen)
	r.Do(kind, ext)
	if len(r.seen) == n {
		return Access{}
	}
	return r.seen[n]
}

func TestFirstAccessIsNotASeek(t *testing.T) {
	d := newRecorded()
	a := d.read(geom.Ext(1000, 8))
	if a.Seeked {
		t.Error("first access must not count as a seek")
	}
	c := d.Counters()
	if c.ReadOps != 1 || c.ReadSeeks != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestSequentialAccessesDoNotSeek(t *testing.T) {
	d := newRecorded()
	d.read(geom.Ext(0, 8))
	a := d.read(geom.Ext(8, 8)) // starts exactly where previous ended
	if a.Seeked {
		t.Error("sequential access must not seek")
	}
	a = d.write(geom.Ext(16, 4)) // read→write still sequential
	if a.Seeked {
		t.Error("kind change alone is not a seek")
	}
	if got := d.Counters().TotalSeeks(); got != 0 {
		t.Errorf("TotalSeeks = %d", got)
	}
}

func TestSeekClassifiedBySecondOp(t *testing.T) {
	d := newRecorded()
	d.write(geom.Ext(0, 8))
	a := d.read(geom.Ext(100, 8)) // second op is a read → read seek
	if !a.Seeked || a.Distance != 92 {
		t.Fatalf("access = %+v", a)
	}
	c := d.Counters()
	if c.ReadSeeks != 1 || c.WriteSeeks != 0 {
		t.Errorf("counters = %+v", c)
	}
	a = d.write(geom.Ext(0, 8)) // second op is a write → write seek
	if !a.Seeked || a.Distance != -108 {
		t.Fatalf("access = %+v", a)
	}
	c = d.Counters()
	if c.WriteSeeks != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestBackwardOneSectorIsASeek(t *testing.T) {
	d := newRecorded()
	d.read(geom.Ext(10, 1))
	a := d.read(geom.Ext(10, 1)) // re-read same sector: pos is 11, start is 10
	if !a.Seeked || a.Distance != -1 {
		t.Errorf("re-read should be a -1 seek, got %+v", a)
	}
}

func TestLongSeekCounting(t *testing.T) {
	d := newRecorded()
	d.read(geom.Ext(0, 1))
	d.read(geom.Ext(LongSeekSectors+10, 1)) // long
	d.read(geom.Ext(0, 1))                  // long backwards
	d.read(geom.Ext(500, 1))                // short
	c := d.Counters()
	if c.ReadSeeks != 3 {
		t.Fatalf("ReadSeeks = %d, want 3", c.ReadSeeks)
	}
	if c.LongReadSeeks != 2 {
		t.Fatalf("LongReadSeeks = %d, want 2", c.LongReadSeeks)
	}
}

func TestEmptyExtentIgnored(t *testing.T) {
	d := newRecorded()
	d.read(geom.Ext(0, 8))
	d.read(geom.Extent{})
	if len(d.seen) != 1 {
		t.Error("empty access must not reach the observers")
	}
	if d.Counters().ReadOps != 1 {
		t.Error("empty access must not count as an op")
	}
	if d.Position() != 8 {
		t.Error("empty access must not move the head")
	}
}

func TestObserverSeesAccesses(t *testing.T) {
	d := newRecorded()
	d.Do(Read, geom.Ext(0, 4))
	d.Do(Write, geom.Ext(100, 4))
	seen := d.seen
	if len(seen) != 2 {
		t.Fatalf("observer saw %d accesses", len(seen))
	}
	if seen[1].Kind != Write || !seen[1].Seeked {
		t.Errorf("second access = %+v", seen[1])
	}
}

func TestCountersTotalsAndString(t *testing.T) {
	a := Counters{ReadOps: 2, WriteOps: 4, ReadSeeks: 6, WriteSeeks: 8,
		ReadSectors: 10, WriteSectors: 12, LongReadSeeks: 2, LongWriteSeeks: 2}
	if a.TotalSeeks() != 14 {
		t.Errorf("TotalSeeks = %d, want 14", a.TotalSeeks())
	}
	if a.String() == "" {
		t.Error("String should be non-empty")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("OpKind.String wrong")
	}
}

func TestTimeModelShapes(t *testing.T) {
	m := DefaultTimeModel()
	if m.SeekTime(0) != 0 {
		t.Error("zero distance must be free")
	}
	// Short forward seek costs the skipped transfer time.
	short := m.SeekTime(100)
	if short != m.TransferTime(100) {
		t.Errorf("short forward = %v, want %v", short, m.TransferTime(100))
	}
	// Short backward seek costs a full rotation (missed rotation).
	if got := m.SeekTime(-100); got != m.RotationTime {
		t.Errorf("missed rotation = %v, want %v", got, m.RotationTime)
	}
	// Long seeks are monotonically non-decreasing with distance and
	// bounded by full stroke + half rotation.
	prev := time.Duration(0)
	for _, d := range []int64{m.ShortSeek + 1, 1 << 20, 1 << 26, 1 << 32, 1 << 40} {
		got := m.SeekTime(d)
		if got < prev {
			t.Errorf("SeekTime(%d) = %v < previous %v", d, got, prev)
		}
		prev = got
	}
	max := m.MaxHeadMove + m.RotationTime/2
	if prev > max {
		t.Errorf("seek time %v exceeds full-stroke bound %v", prev, max)
	}
	if m.TransferTime(-5) != 0 {
		t.Error("negative transfer must be 0")
	}
}

func TestTimeAccumulator(t *testing.T) {
	d := New()
	acc := NewTimeAccumulator(DefaultTimeModel())
	d.AddObserver(acc)
	d.Do(Read, geom.Ext(0, 100))
	d.Do(Write, geom.Ext(1<<30, 100))
	if acc.ReadTime <= 0 || acc.WriteTime <= 0 {
		t.Fatalf("times not accumulated: %+v", acc)
	}
	if acc.SeekTime <= 0 {
		t.Error("seek time should be positive after a long seek")
	}
	if acc.Total() != acc.ReadTime+acc.WriteTime {
		t.Error("Total mismatch")
	}
}
