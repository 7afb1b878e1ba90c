package band

import (
	"math/rand"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// scanDirtiest is the victim selection the index replaced — a walk of
// every band the device has touched — kept as the reference the indexed
// answer is compared against.
func scanDirtiest(d *Device, unit int) *bandState {
	var best *bandState
	for b, bs := range d.bands {
		if bs.cached <= 0 {
			continue
		}
		if unit >= 0 && b%int64(len(d.units)) != int64(unit) {
			continue
		}
		if best == nil || bs.cached > best.cached || (bs.cached == best.cached && b < best.index) {
			best = bs
		}
	}
	return best
}

// checkVictims compares the index with the scan for the global query
// and for every unit's.
func checkVictims(t *testing.T, d *Device, when string) {
	t.Helper()
	for unit := -1; unit < len(d.units); unit++ {
		if got, want := d.dirtiestBand(unit), scanDirtiest(d, unit); got != want {
			t.Fatalf("%s: dirtiestBand(%d) = %+v, full scan picks %+v", when, unit, got, want)
		}
	}
}

// TestVictimIndexMatchesScan replays seeded rewrite-heavy streams under
// every policy and compares index and scan at every physical access.
// cleanBand touches nothing between the cleaner's choice and its first
// read, so that read sees exactly the state the victim was chosen from:
// every clean — soft, stall, PolB's per-unit and whole-unit ones — is
// checked against the reference before it runs.
func TestVictimIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(seedFor(t)))
	for _, pol := range []Policy{PolA, PolB, Shelter} {
		d, err := New(Config{
			BandSectors:  256,
			CacheSectors: 2048,
			UnitSectors:  512,
			DataSectors:  1 << 20,
			Policy:       pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.AddObserver(observerFunc(func(disk.Access) {
			checkVictims(t, d, pol.String()+" mid-op")
		}))
		for _, r := range synthTrace(rng, 4000, true) {
			d.Do(r.Kind, r.Extent)
			checkVictims(t, d, pol.String()+" after op")
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if c := d.Cleaning(); c.BandsCleaned < 100 || c.Stalls == 0 {
			t.Fatalf("%v: workload barely reached the cleaner: %+v", pol, c)
		}
	}
}

// TestVictimTieBreak builds equal cached counts by hand, dirtying the
// higher bands first: the victim is the lowest band index, globally and
// within a unit, and more cached sectors beat a lower index.
func TestVictimTieBreak(t *testing.T) {
	d := small(t, PolA) // two units: odd bands belong to unit 1
	for b := geom.Sector(1); b <= 5; b++ {
		write(t, d, b*100, 50)
	}
	for _, b := range []geom.Sector{5, 3, 2, 1} {
		write(t, d, b*100, 10) // rewrite: 10 cached sectors each
	}
	want := func(unit int, band int64) {
		t.Helper()
		checkVictims(t, d, "tie")
		if got := d.dirtiestBand(unit); got == nil || got.index != band {
			t.Fatalf("dirtiestBand(%d) = %+v, want band %d", unit, got, band)
		}
	}
	want(-1, 1)
	want(1, 1)
	want(0, 2)
	write(t, d, 520, 10) // band 5 now holds 20 cached sectors
	want(-1, 5)
	want(1, 5)
	write(t, d, 520, 10) // overwriting them changes nothing
	want(-1, 5)
	d.cleanBand(d.bands[5])
	d.cleanBand(d.bands[1])
	want(-1, 2)
	want(1, 3)
}

// TestCleanBandAllocs: once the map's scratch buffer and the victim
// heaps have grown, a stall clean — selection, the band's
// read-modify-write, dropping its mappings, re-indexing — allocates
// nothing.
func TestCleanBandAllocs(t *testing.T) {
	d, err := New(Config{
		BandSectors:  256,
		CacheSectors: 4096,
		UnitSectors:  512,
		DataSectors:  1 << 20,
		CleanLo:      1, // no idle cleaning: the dirty bands pile up
		CleanHi:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const bands, warm, runs = 300, 50, 200
	for b := geom.Sector(0); b < bands; b++ {
		write(t, d, b*256, 256)
	}
	for b := geom.Sector(0); b < bands; b++ {
		for piece := geom.Sector(0); piece <= b%4; piece++ {
			write(t, d, b*256+piece*40, 2)
		}
	}
	if c := d.Cleaning(); c.DirtyBands != bands || c.BandsCleaned != 0 {
		t.Fatalf("set-up: %+v, want %d dirty bands and no clean yet", c, bands)
	}
	clean := func() {
		if !d.stallCleanOne() {
			t.Fatal("no dirty band left to clean")
		}
	}
	for i := 0; i < warm; i++ {
		clean()
	}
	if allocs := testing.AllocsPerRun(runs, clean); allocs != 0 {
		t.Fatalf("a stall clean allocated %.1f times, want 0", allocs)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
