package disk

import (
	"testing"
	"time"

	"smrseek/internal/geom"
)

func TestFirstAccessIsNotASeek(t *testing.T) {
	d := New()
	a := d.Read(geom.Ext(1000, 8))
	if a.Seeked {
		t.Error("first access must not count as a seek")
	}
	c := d.Counters()
	if c.ReadOps != 1 || c.ReadSeeks != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestSequentialAccessesDoNotSeek(t *testing.T) {
	d := New()
	d.Read(geom.Ext(0, 8))
	a := d.Read(geom.Ext(8, 8)) // starts exactly where previous ended
	if a.Seeked {
		t.Error("sequential access must not seek")
	}
	a = d.Write(geom.Ext(16, 4)) // read→write still sequential
	if a.Seeked {
		t.Error("kind change alone is not a seek")
	}
	if got := d.Counters().TotalSeeks(); got != 0 {
		t.Errorf("TotalSeeks = %d", got)
	}
}

func TestSeekClassifiedBySecondOp(t *testing.T) {
	d := New()
	d.Write(geom.Ext(0, 8))
	a := d.Read(geom.Ext(100, 8)) // second op is a read → read seek
	if !a.Seeked || a.Distance != 92 {
		t.Fatalf("access = %+v", a)
	}
	c := d.Counters()
	if c.ReadSeeks != 1 || c.WriteSeeks != 0 {
		t.Errorf("counters = %+v", c)
	}
	a = d.Write(geom.Ext(0, 8)) // second op is a write → write seek
	if !a.Seeked || a.Distance != -108 {
		t.Fatalf("access = %+v", a)
	}
	c = d.Counters()
	if c.WriteSeeks != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestBackwardOneSectorIsASeek(t *testing.T) {
	d := New()
	d.Read(geom.Ext(10, 1))
	a := d.Read(geom.Ext(10, 1)) // re-read same sector: pos is 11, start is 10
	if !a.Seeked || a.Distance != -1 {
		t.Errorf("re-read should be a -1 seek, got %+v", a)
	}
}

func TestLongSeekCounting(t *testing.T) {
	d := New()
	d.Read(geom.Ext(0, 1))
	d.Read(geom.Ext(LongSeekSectors+10, 1)) // long
	d.Read(geom.Ext(0, 1))                  // long backwards
	d.Read(geom.Ext(500, 1))                // short
	c := d.Counters()
	if c.ReadSeeks != 3 {
		t.Fatalf("ReadSeeks = %d, want 3", c.ReadSeeks)
	}
	if c.LongReadSeeks != 2 {
		t.Fatalf("LongReadSeeks = %d, want 2", c.LongReadSeeks)
	}
}

func TestEmptyExtentIgnored(t *testing.T) {
	d := New()
	d.Read(geom.Ext(0, 8))
	a := d.Read(geom.Extent{})
	if a.Seeked {
		t.Error("empty access must not seek")
	}
	if d.Counters().ReadOps != 1 {
		t.Error("empty access must not count as an op")
	}
	if d.Position() != 8 {
		t.Error("empty access must not move the head")
	}
}

// observerFunc adapts a function to the Observer interface.
type observerFunc func(Access)

func (f observerFunc) ObserveAccess(a Access) { f(a) }

func TestObserverSeesAccesses(t *testing.T) {
	d := New()
	var seen []Access
	d.AddObserver(observerFunc(func(a Access) { seen = append(seen, a) }))
	d.Read(geom.Ext(0, 4))
	d.Write(geom.Ext(100, 4))
	if len(seen) != 2 {
		t.Fatalf("observer saw %d accesses", len(seen))
	}
	if seen[1].Kind != Write || !seen[1].Seeked {
		t.Errorf("second access = %+v", seen[1])
	}
}

func TestCountersAddAndString(t *testing.T) {
	a := Counters{ReadOps: 1, WriteOps: 2, ReadSeeks: 3, WriteSeeks: 4,
		ReadSectors: 5, WriteSectors: 6, LongReadSeeks: 1, LongWriteSeeks: 1}
	b := a
	a.Add(b)
	if a.ReadOps != 2 || a.WriteSeeks != 8 || a.LongWriteSeeks != 2 {
		t.Errorf("Add result = %+v", a)
	}
	if a.TotalOps() != 6 || a.TotalSeeks() != 14 {
		t.Errorf("totals wrong: %+v", a)
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
	d.Read(geom.Ext(0, 100))
	d.Write(geom.Ext(1<<30, 100))
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
