package band

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
)

// The banded-device oracle: a deliberately naive second model of the
// cache-enabled device, in the style of the classic SMR_simulator
// scripts (smr_multipcache.py). It keeps one location per sector, one
// write pointer per band and one fill and live count per cache unit,
// and answers every question by walking sectors or bands: no extent
// map, no heap. The rules are the ones band.go's comments and DESIGN
// §17 state. Where §17 departs from the scripts, the oracle follows
// §17:
//   - a sheltered piece borrows the unwritten tail of the band the
//     shelter point is in and advances that band's write pointer; a
//     clean reclaims the piece's accounting, not the borrowed sectors
//     (band.go's package comment, "Honest limitations");
//   - a clean reads and rewrites [band start, write pointer), not the
//     whole band;
//   - "background" cleans run inline, one band per host op above the
//     low watermark ("What is not modelled").

// oracleLoc is where a sector lives when it is away from home: an
// offset inside a cache unit, or, for unit shelterUnit, a sector of the
// banded region that a sheltered piece borrowed. A sector with no entry
// is at home (PBA = LBA).
type oracleLoc struct {
	unit int
	at   int64
}

const shelterUnit = -1

type oracle struct {
	cfg   Config // defaulted
	units int64
	loc   map[int64]oracleLoc
	wp    map[int64]int64 // band -> write pointer; absent = the band's start
	fill  []int64         // per unit: appended sectors
	live  []int64         // per unit: sectors still mapped there

	head       int64 // the sector after the previous physical access
	shelterPos int64 // the end of the last big in-place access
	stalled    bool  // a stall clean already ran during this op
	sheltered  int64 // pieces placed at the shelter point (for coverage)

	c   metrics.Cleaning
	out []disk.Access // this op's physical accesses, kind and extent only
}

func newOracle(cfg Config) *oracle {
	cfg = cfg.withDefaults()
	n := max(cfg.CacheSectors/cfg.UnitSectors, 1)
	return &oracle{
		cfg:   cfg,
		units: n,
		loc:   make(map[int64]oracleLoc),
		wp:    make(map[int64]int64),
		fill:  make([]int64, n),
		live:  make([]int64, n),
	}
}

func (o *oracle) bandOf(s int64) int64    { return s / o.cfg.BandSectors }
func (o *oracle) bandStart(b int64) int64 { return b * o.cfg.BandSectors }
func (o *oracle) bandEnd(b int64) int64   { return min((b+1)*o.cfg.BandSectors, o.cfg.DataSectors) }
func (o *oracle) nBands() int64           { return o.bandOf(o.cfg.DataSectors-1) + 1 }

func (o *oracle) wpOf(b int64) int64 {
	if w, ok := o.wp[b]; ok {
		return w
	}
	return o.bandStart(b)
}

func (o *oracle) raiseWP(b, to int64) {
	if to > o.wpOf(b) {
		o.wp[b] = to
	}
}

func (o *oracle) unitStart(u int) int64 { return o.cfg.DataSectors + int64(u)*o.cfg.UnitSectors }

// phys is the sector's physical address.
func (o *oracle) phys(s int64) int64 {
	l, ok := o.loc[s]
	switch {
	case !ok:
		return s
	case l.unit == shelterUnit:
		return l.at
	}
	return o.unitStart(l.unit) + l.at
}

// access records one physical access and moves the head past it.
func (o *oracle) access(kind disk.OpKind, start, n int64) {
	if n <= 0 {
		return
	}
	o.out = append(o.out, disk.Access{Kind: kind, Extent: geom.Ext(start, n)})
	o.head = start + n
}

// fragment is one maximal run of [start, end) that is contiguous in
// both LBA and PBA; home is false when any sector of it is away.
type fragment struct {
	lba, pba, n int64
	home        bool
}

// fragments walks [start, end) sector by sector, merging neighbours
// whose physical addresses are consecutive — the rule extmap's
// LookupFunc applies to its pieces.
func (o *oracle) fragments(start, end int64) []fragment {
	var fs []fragment
	for s := start; s < end; s++ {
		p := o.phys(s)
		_, away := o.loc[s]
		if k := len(fs) - 1; k >= 0 && fs[k].pba+fs[k].n == p {
			fs[k].n++
			fs[k].home = fs[k].home && !away
			continue
		}
		fs = append(fs, fragment{lba: s, pba: p, n: 1, home: !away})
	}
	return fs
}

// cached counts the band's sectors that are away from home.
func (o *oracle) cached(b int64) int64 {
	var n int64
	for s := o.bandStart(b); s < o.bandEnd(b); s++ {
		if _, away := o.loc[s]; away {
			n++
		}
	}
	return n
}

func (o *oracle) dirtyBands() int64 {
	var n int64
	for b := int64(0); b < o.nBands(); b++ {
		if o.cached(b) > 0 {
			n++
		}
	}
	return n
}

// victim scans every band for the dirtiest — most cached sectors, the
// lowest index on ties — restricted to PolB's unit when unit >= 0, and
// returns -1 when no band qualifies.
func (o *oracle) victim(unit int) int64 {
	best, bestN := int64(-1), int64(0)
	for b := int64(0); b < o.nBands(); b++ {
		if unit >= 0 && b%o.units != int64(unit) {
			continue
		}
		if n := o.cached(b); n > bestN {
			best, bestN = b, n
		}
	}
	return best
}

// release forgets a sector's away location: its unit loses a live
// sector, and a unit with none left is reclaimed whole.
func (o *oracle) release(s int64) {
	l, ok := o.loc[s]
	if !ok {
		return
	}
	delete(o.loc, s)
	if l.unit != shelterUnit {
		o.live[l.unit]--
		if o.live[l.unit] == 0 {
			o.fill[l.unit] = 0
		}
	}
}

// place maps [lba, lba+n) to consecutive locations from first on,
// releasing what those sectors held before.
func (o *oracle) place(lba, n int64, first oracleLoc) {
	for i := int64(0); i < n; i++ {
		o.release(lba + i)
		o.loc[lba+i] = oracleLoc{first.unit, first.at + i}
	}
	o.c.CachedWrites++
	o.c.CachedSectors += n
}

func (o *oracle) noteTail(start, n int64) {
	if n > o.cfg.ShelterSectors && start+n <= o.cfg.DataSectors {
		o.shelterPos = start + n
	}
}

// do runs one host op and returns the physical accesses it caused.
func (o *oracle) do(kind disk.OpKind, ext geom.Extent) []disk.Access {
	o.out = o.out[:0]
	if ext.Count <= 0 {
		return o.out
	}
	start, end := ext.Start, ext.End()
	if start < o.cfg.DataSectors {
		last := min(end, o.cfg.DataSectors) - 1
		o.c.BandCrossings += o.bandOf(last) - o.bandOf(start)
	}
	o.stalled = false
	if kind == disk.Read {
		for _, f := range o.fragments(start, end) {
			if !f.home {
				o.c.CacheReads++
			}
			o.access(disk.Read, f.pba, f.n)
		}
		o.noteTail(start, ext.Count)
	} else {
		o.write(start, end)
	}
	o.softClean()
	return o.out
}

// write sends the in-place stretches of [start, end) straight to the
// disk, one access per run, and redirects each band's piece below its
// write pointer, after first raising the pointer past it.
func (o *oracle) write(start, end int64) {
	o.c.HostWriteSectors += end - start
	run := start
	flush := func(to int64) {
		o.access(disk.Write, run, to-run)
		o.noteTail(run, to-run)
	}
	for cur := start; cur < end && cur < o.cfg.DataSectors; {
		b := o.bandOf(cur)
		chunk := min(o.bandEnd(b), end)
		below := cur < o.wpOf(b)
		o.raiseWP(b, chunk)
		if below {
			flush(cur)
			o.redirect(cur, chunk, b)
			run = chunk
		}
		cur = chunk
	}
	flush(end)
}

func (o *oracle) redirect(start, end, b int64) {
	n := end - start
	if o.cfg.Policy == Shelter && n <= o.cfg.ShelterSectors && o.shelter(start, n) {
		return
	}
	for cur := start; cur < end; cur += o.cfg.UnitSectors {
		k := min(end-cur, o.cfg.UnitSectors)
		u := o.alloc(k, b)
		at := o.fill[u]
		o.fill[u] += k
		o.live[u] += k
		o.access(disk.Write, o.unitStart(u)+at, k)
		o.place(cur, k, oracleLoc{u, at})
	}
}

// shelter writes a small piece at the shelter point, in the unwritten
// tail of the band the head is in, if it fits there.
func (o *oracle) shelter(lba, n int64) bool {
	sb := o.bandOf(o.shelterPos)
	target := max(o.shelterPos, o.wpOf(sb))
	if target+n > o.bandEnd(sb) {
		return false
	}
	// Sheltered sectors draw on the cache budget: stall-clean until n
	// more fit under the high watermark, or nothing is dirty.
	hi := int64(o.cfg.CleanHi * float64(o.cfg.CacheSectors))
	for int64(len(o.loc))+n > hi && o.stallClean() {
	}
	o.access(disk.Write, target, n)
	o.raiseWP(sb, target+n)
	o.place(lba, n, oracleLoc{shelterUnit, target})
	o.shelterPos = target + n
	o.sheltered++
	return true
}

// alloc picks the unit for a piece of n sectors of band b, cleaning
// under the host op when the policy finds no room.
func (o *oracle) alloc(n, b int64) int {
	if o.cfg.Policy == PolB {
		u := int(b % o.units)
		if o.fill[u]+n > o.cfg.UnitSectors {
			o.cleanUnit(u)
		}
		return u
	}
	for {
		best, bestDist := -1, int64(0)
		for u := range o.fill {
			if o.fill[u]+n > o.cfg.UnitSectors {
				continue
			}
			dist := o.unitStart(u) + o.fill[u] - o.head
			if dist < 0 {
				dist = -dist
			}
			if best < 0 || dist < bestDist {
				best, bestDist = u, dist
			}
		}
		if best >= 0 {
			return best
		}
		if !o.stallClean() {
			return 0
		}
	}
}

// stall charges the op's first stall; the caller then cleans.
func (o *oracle) stall() {
	o.c.CleanRuns++
	if !o.stalled {
		o.stalled = true
		o.c.Stalls++
	}
}

func (o *oracle) moved() int64 { return o.c.CleanReadSectors + o.c.CleanWriteSectors }

func (o *oracle) stallClean() bool {
	b := o.victim(-1)
	if b < 0 {
		return false
	}
	o.stall()
	before := o.moved()
	o.clean(b)
	o.c.StallSectors += o.moved() - before
	return true
}

// cleanUnit cleans every dirty band of PolB's unit u, lowest band first.
func (o *oracle) cleanUnit(u int) {
	o.stall()
	before := o.moved()
	for b := int64(u); b < o.nBands(); b += o.units {
		if o.cached(b) > 0 {
			o.clean(b)
		}
	}
	o.c.StallSectors += o.moved() - before
}

func (o *oracle) softClean() {
	if o.stalled || o.dirtyBands() == 0 {
		return
	}
	if int64(len(o.loc)) > int64(o.cfg.CleanLo*float64(o.cfg.CacheSectors)) {
		o.c.CleanRuns++
		o.clean(o.victim(-1))
		return
	}
	if o.cfg.Policy != PolB {
		return
	}
	lo := int64(o.cfg.CleanLo * float64(o.cfg.UnitSectors))
	for u := range o.fill {
		if o.fill[u] <= lo {
			continue
		}
		if b := o.victim(u); b >= 0 {
			o.c.CleanRuns++
			o.clean(b)
			return
		}
	}
}

// clean reads the band's cached fragments in LBA order, then reads and
// rewrites [band start, write pointer), and sends every sector home.
func (o *oracle) clean(b int64) {
	start, end := o.bandStart(b), o.wpOf(b)
	for _, f := range o.fragments(start, end) {
		if !f.home {
			o.access(disk.Read, f.pba, f.n)
			o.c.CleanReadSectors += f.n
		}
	}
	o.access(disk.Read, start, end-start)
	o.access(disk.Write, start, end-start)
	o.c.CleanReadSectors += end - start
	o.c.CleanWriteSectors += end - start
	for s := start; s < end; s++ {
		o.release(s)
	}
	o.c.BandsCleaned++
}

func (o *oracle) cleaning() metrics.Cleaning {
	c := o.c
	c.DirtyBands = o.dirtyBands()
	return c
}

// oracleRig runs a device and the oracle side by side.
type oracleRig struct {
	d    *Device
	o    *oracle
	seen []disk.Access
}

func newOracleRig(cfg Config) (*oracleRig, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	r := &oracleRig{d: d, o: newOracle(cfg)}
	d.AddObserver(observerFunc(func(a disk.Access) {
		r.seen = append(r.seen, disk.Access{Kind: a.Kind, Extent: a.Extent})
	}))
	return r, nil
}

// step runs one host op on both and reports the first disagreement.
func (r *oracleRig) step(kind disk.OpKind, ext geom.Extent) error {
	r.seen = r.seen[:0]
	r.d.Do(kind, ext)
	want := r.o.do(kind, ext)
	if !slices.Equal(r.seen, want) {
		return fmt.Errorf("%s %v: device accessed %v, oracle %v", kind, ext, r.seen, want)
	}
	if got, want := r.d.Cleaning(), r.o.cleaning(); got != want {
		return fmt.Errorf("%s %v: device cleaning %+v, oracle %+v", kind, ext, got, want)
	}
	return nil
}

// TestBandOracle replays seeded random streams over a few small bands
// through the device and the oracle under every policy, comparing the
// physical accesses of each host op and all of the cleaning counters.
// A failing seed is logged and replays with -band.seed.
func TestBandOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(seedFor(t)))
	for _, pol := range []Policy{PolA, PolB, Shelter} {
		var total metrics.Cleaning
		var sheltered int64
		for trial := 0; trial < 12; trial++ {
			bandSize := 16 + rng.Int63n(49)
			unit := bandSize/2 + rng.Int63n(bandSize)
			units := 2 + rng.Int63n(3)
			cfg := Config{
				BandSectors:    bandSize,
				UnitSectors:    unit,
				CacheSectors:   units*unit + rng.Int63n(unit),
				DataSectors:    (4+rng.Int63n(5))*bandSize - rng.Int63n(bandSize/2),
				Policy:         pol,
				ShelterSectors: 1 + rng.Int63n(bandSize/2),
				CleanLo:        0.4 + 0.1*float64(rng.Intn(4)),
				CleanHi:        0.8 + 0.1*float64(rng.Intn(3)),
			}
			r, err := newOracleRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 300; op++ {
				kind := disk.Read
				if rng.Intn(3) > 0 {
					kind = disk.Write
				}
				ext := geom.Ext(rng.Int63n(cfg.DataSectors+bandSize), 1+rng.Int63n(2*bandSize))
				if err := r.step(kind, ext); err != nil {
					t.Fatalf("%v trial %d op %d (%+v): %v", pol, trial, op, cfg, err)
				}
			}
			if err := r.d.CheckInvariants(); err != nil {
				t.Fatalf("%v trial %d: %v", pol, trial, err)
			}
			c := r.d.Cleaning()
			total.CacheReads += c.CacheReads
			total.BandsCleaned += c.BandsCleaned
			total.Stalls += c.Stalls
			sheltered += r.o.sheltered
		}
		if total.CacheReads == 0 || total.BandsCleaned == 0 || total.Stalls == 0 {
			t.Errorf("%v: the streams did not reach cache reads, cleans and stalls: %+v", pol, total)
		}
		if pol == Shelter && sheltered == 0 {
			t.Errorf("shelter: no piece was sheltered")
		}
	}
}
