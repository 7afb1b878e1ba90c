package stl_test

import (
	"reflect"
	"testing"

	"smrseek/internal/gc"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
)

// TestLayerContract checks the append contract every translation layer
// shares, on the two built-in layers and the gc alternative: appending
// into a non-empty dst leaves its prefix untouched and appends exactly
// the fragments an empty dst would get; and an empty extent appends
// nothing. The rewrite loop runs long enough that gc cleans inside
// WriteAppend, whose relocations must never land in the caller's dst.
func TestLayerContract(t *testing.T) {
	gcLayer, err := gc.New(gc.Config{DeviceSectors: 4096, LogSectors: 8 * 256, SegmentSectors: 256})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		layer stl.Layer
	}{
		{"NoLS", stl.NewNoLS()},
		{"LS", stl.NewLS(1 << 16)},
		{"gc", gcLayer},
	}
	sentinel := stl.Fragment{Lba: geom.Ext(7, 1), Pba: 12345}
	prefix := func() []stl.Fragment {
		dst := make([]stl.Fragment, 1, 8) // spare capacity: appends land in place
		dst[0] = sentinel
		return dst
	}
	// tail checks got is the sentinel prefix plus a suffix and returns
	// the suffix.
	tail := func(t *testing.T, op string, got []stl.Fragment) []stl.Fragment {
		t.Helper()
		if len(got) == 0 || got[0] != sentinel {
			t.Fatalf("%s clobbered the dst prefix: %v", op, got)
		}
		return got[1:]
	}
	// tiles checks the fragments cover lba exactly, in ascending order.
	tiles := func(t *testing.T, op string, frags []stl.Fragment, lba geom.Extent) {
		t.Helper()
		cur := lba.Start
		for _, f := range frags {
			if f.Lba.Start != cur || f.Lba.Empty() {
				t.Fatalf("%s fragments do not tile %v: %v", op, lba, frags)
			}
			cur = f.Lba.End()
		}
		if cur != lba.End() {
			t.Fatalf("%s fragments do not reach the end of %v: %v", op, lba, frags)
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.layer
			// A small history that fragments the target.
			for _, e := range []geom.Extent{geom.Ext(0, 16), geom.Ext(3, 2), geom.Ext(9, 1)} {
				l.WriteAppend(nil, e)
			}
			target := geom.Ext(0, 16)

			if got := l.ResolveAppend(prefix(), geom.Extent{}); len(tail(t, "empty ResolveAppend", got)) != 0 {
				t.Errorf("empty ResolveAppend appended %v", got[1:])
			}
			if got := l.WriteAppend(prefix(), geom.Extent{}); len(tail(t, "empty WriteAppend", got)) != 0 {
				t.Errorf("empty WriteAppend appended %v", got[1:])
			}

			for i := 0; i < 200; i++ {
				alone := l.ResolveAppend(nil, target)
				got := tail(t, "ResolveAppend", l.ResolveAppend(prefix(), target))
				if !reflect.DeepEqual(got, alone) {
					t.Fatalf("ResolveAppend into a non-empty dst appended %v, into nil %v", got, alone)
				}
				tiles(t, "ResolveAppend", got, target)

				placed := tail(t, "WriteAppend", l.WriteAppend(prefix(), target))
				tiles(t, "WriteAppend", placed, target)
				// Data that stays live, so every gc victim has extents
				// to relocate.
				l.WriteAppend(nil, geom.Ext(1000+4*int64(i), 4))
			}
			if g, ok := l.(*gc.Layer); ok && g.ExtraSectors() == 0 {
				t.Error("gc never cleaned inside WriteAppend; lengthen the loop")
			}
		})
	}
}
