package band

import (
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// FuzzBandAllocator drives the banded device with an arbitrary byte
// stream decoded into host ops, under a fuzzer-chosen geometry and
// policy, and checks the allocator's structural invariants after every
// operation: no physical overlap between live redirections, fill/live
// accounting exact, dirty set consistent with the mappings, every
// mapping below its band's write pointer.
func FuzzBandAllocator(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(2))
	f.Add([]byte{9, 200, 31, 7, 200, 31, 7, 200, 31}, uint8(1), uint8(1))
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248}, uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, polByte, geo uint8) {
		pol := Policy(polByte % 3)
		// Small geometries so a few ops reach the cleaning paths:
		// bands of 32..128 sectors, 2..4 cache units of half a band.
		bandSize := int64(32) << (geo % 3)
		units := int64(2 + geo%3)
		d, err := New(Config{
			BandSectors:    bandSize,
			CacheSectors:   units * bandSize / 2,
			UnitSectors:    bandSize / 2,
			DataSectors:    64 * bandSize,
			Policy:         pol,
			ShelterSectors: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			kind := disk.Read
			if ops[i]&1 == 0 {
				kind = disk.Write
			}
			start := (int64(ops[i]>>1) | int64(ops[i+1])<<7) % (64 * bandSize)
			count := 1 + int64(ops[i+2])%(2*bandSize)
			d.Do(kind, geom.Ext(start, count))
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%s %d+%d, pol %v): %v", i/3, kind, start, count, pol, err)
			}
		}
	})
}
