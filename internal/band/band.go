// Package band is the finite-disk SMR device model: the banded
// counterpart to the paper's infinite disk (internal/disk). The medium
// is divided into fixed-size shingled bands with a per-band write
// pointer; writing a band anywhere below its pointer would destroy the
// shingled tracks above, so such rewrites are redirected into a
// persistent on-disk cache region and merged back later by band
// cleaning (a read-modify-write of the whole band). The device
// implements disk.Device, so internal/core drives it exactly like the
// infinite model and every translation layer and mechanism runs
// unchanged on either geometry.
//
// Placement of redirected writes is pluggable (PolA, PolB, Shelter —
// the classic drive-managed SMR policies), and cleaning is triggered by
// configurable low/high watermarks: above the low watermark the device
// cleans one band per host operation (modelling idle-time cleaning);
// when space runs out or the high watermark is hit the clean happens
// synchronously under the host op and is accounted as a stall.
//
// Honest limitations of the model, in one place:
//   - It is a seek/accounting model, not a data model: no bytes move,
//     only head positions and counters.
//   - The cache region is modelled as conventional (unshingled) media,
//     as is the space above it. The LS log lives in the banded region
//     but only appends at its frontier, never below a band's write
//     pointer, so none of its writes is redirected.
//   - Sheltered pieces land in the unwritten tail of the band the head
//     is in; that space is borrowed, and cleaning reclaims its
//     accounting but not the borrowed sectors themselves.
//   - "Background" (non-stall) cleans still execute synchronously in
//     simulated time; the stall counter distinguishes cleans the host
//     had to wait for from cleans an idle drive would have absorbed.
package band

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"smrseek/internal/disk"
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
)

// Policy selects where redirected (cache-bound) writes are placed.
type Policy uint8

const (
	// PolA appends to the cache unit whose write position is nearest
	// the current head, and cleaning picks the dirtiest band globally —
	// the "many caches clean" policy.
	PolA Policy = iota
	// PolB statically assigns each band to a cache unit (band mod
	// units) and writes to that band's own log; a full unit triggers a
	// "single cache clean" of exactly the bands assigned to it.
	PolB
	// Shelter places small rewrites at the shelter point — immediately
	// after the tail of the last big I/O, where the head already is, so
	// the write is seek-free — and treats big rewrites like PolA.
	Shelter
)

// String returns the CLI spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolA:
		return "pol-a"
	case PolB:
		return "pol-b"
	case Shelter:
		return "shelter"
	}
	return fmt.Sprintf("Policy(%d)", p)
}

// ParsePolicy parses the CLI spelling ("pol-a", "pol-b", "shelter").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "pol-a", "a":
		return PolA, nil
	case "pol-b", "b":
		return PolB, nil
	case "shelter":
		return Shelter, nil
	}
	return 0, fmt.Errorf("band: unknown policy %q (want pol-a, pol-b or shelter)", s)
}

// DefaultBandSectors is 10 MB of sectors — the band size the classic
// SMR simulators default to.
const DefaultBandSectors = 10 * 1000 * 1000 / geom.SectorSize

// DefaultDataSectors places the persistent cache far above any address
// a trace or translation-layer log reaches, so the banded data region
// never collides with it.
const DefaultDataSectors = geom.Sector(1) << 40

// Config describes the banded geometry and the persistent cache.
type Config struct {
	// BandSectors is the shingled band size (default DefaultBandSectors).
	BandSectors int64
	// CacheSectors is the persistent cache capacity; 0 disables the
	// cache entirely, making every access pass through in place —
	// bit-identical to the infinite model.
	CacheSectors int64
	// UnitSectors is the cache allocation unit (default BandSectors,
	// clamped to CacheSectors). The cache holds CacheSectors/UnitSectors
	// append logs; a redirected piece never spans two units.
	UnitSectors int64
	// Policy selects the placement policy (default PolA).
	Policy Policy
	// DataSectors bounds the banded region [0, DataSectors); the cache
	// begins at DataSectors and everything above the cache is
	// conventional pass-through space (default DefaultDataSectors).
	DataSectors geom.Sector
	// CleanLo and CleanHi are the cleaning trigger thresholds as
	// fractions of CacheSectors (defaults 0.7 and 0.9): above CleanLo
	// the device cleans one band per host op; at CleanHi — or when an
	// allocation fails — it cleans synchronously and records a stall.
	CleanLo, CleanHi float64
	// ShelterSectors is the Shelter policy's small-write threshold
	// (default 64 sectors = 32 KB); bigger rewrites go to the cache.
	ShelterSectors int64
}

func (c Config) withDefaults() Config {
	if c.BandSectors == 0 {
		c.BandSectors = DefaultBandSectors
	}
	if c.UnitSectors == 0 {
		c.UnitSectors = c.BandSectors
	}
	if c.CacheSectors > 0 && c.UnitSectors > c.CacheSectors {
		c.UnitSectors = c.CacheSectors
	}
	if c.DataSectors == 0 {
		c.DataSectors = DefaultDataSectors
	}
	if c.CleanLo == 0 {
		c.CleanLo = 0.7
	}
	if c.CleanHi == 0 {
		c.CleanHi = 0.9
	}
	if c.ShelterSectors == 0 {
		c.ShelterSectors = 64
	}
	return c
}

// Validate reports configuration errors (after defaulting).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.BandSectors <= 0 {
		return fmt.Errorf("band: band size %d sectors, want > 0", c.BandSectors)
	}
	if c.CacheSectors < 0 {
		return fmt.Errorf("band: negative cache size %d", c.CacheSectors)
	}
	if c.CacheSectors > 0 && c.UnitSectors <= 0 {
		return fmt.Errorf("band: cache unit %d sectors, want > 0", c.UnitSectors)
	}
	if c.DataSectors <= 0 {
		return fmt.Errorf("band: data region %d sectors, want > 0", c.DataSectors)
	}
	if c.CleanLo < 0 || c.CleanHi > 1 || c.CleanLo > c.CleanHi {
		return fmt.Errorf("band: watermarks lo=%v hi=%v, want 0 <= lo <= hi <= 1", c.CleanLo, c.CleanHi)
	}
	if c.ShelterSectors <= 0 {
		return fmt.Errorf("band: shelter threshold %d sectors, want > 0", c.ShelterSectors)
	}
	switch c.Policy {
	case PolA, PolB, Shelter:
	default:
		return fmt.Errorf("band: unknown policy %d", c.Policy)
	}
	return nil
}

// bandState is the per-band shingle bookkeeping.
type bandState struct {
	index  int64       // the band's number
	wmark  geom.Sector // write pointer: [bandStart, wmark) holds in-place data
	cached int64       // live sectors currently redirected to the cache
	pos    int         // position in the band's victim heap; -1 while clean
}

// cleansBefore is the victim order: the band with more cached sectors
// is cleaned first, the lower band index on ties. It is a strict total
// order, so the cleaner's choice never depends on insertion history.
func cleansBefore(a, b *bandState) bool {
	return a.cached > b.cached || (a.cached == b.cached && a.index < b.index)
}

// victimHeap is a heap of dirty bands under cleansBefore whose members
// know their positions, so a band whose cached count changed is moved
// or removed in O(log n) (container/heap's Fix and Remove).
type victimHeap []*bandState

func (h victimHeap) Len() int           { return len(h) }
func (h victimHeap) Less(i, j int) bool { return cleansBefore(h[i], h[j]) }

func (h victimHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *victimHeap) Push(x any) {
	bs := x.(*bandState)
	bs.pos = len(*h)
	*h = append(*h, bs)
}

func (h *victimHeap) Pop() any {
	old := *h
	bs := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	bs.pos = -1
	return bs
}

// cacheUnit is one append log inside the cache region.
type cacheUnit struct {
	start geom.Sector // physical start of the unit
	fill  int64       // appended sectors (monotonic until reclaim)
	live  int64       // live mapped sectors; 0 => the unit is reclaimable
}

// Device is the banded SMR device model. It implements disk.Device by
// wrapping the infinite head-position engine: every physical access —
// pass-through, cache redirect, cleaning RMW — goes through the same
// §II seek arithmetic, so disk.Counters mean exactly what they mean on
// the infinite model, cleaning cost included.
type Device struct {
	cfg   Config
	inner *disk.Disk

	bands map[int64]*bandState
	cmap  *extmap.Map // device address -> physical location of redirected data
	units []cacheUnit

	// victims indexes the dirty bands (cached > 0) for the cleaner, one
	// heap per cache unit: band b lives in victims[b mod len(units)],
	// PolB's band-to-unit assignment. A unit's first victim is its heap's
	// top, the global one the best of the len(units) tops, and a unit's
	// whole band list is its heap's contents — no query walks d.bands.
	// reindex keeps it current wherever a band's cached count changes.
	victims []victimHeap

	cacheLive   int64       // live sectors in the cache region
	shelterLive int64       // live sheltered sectors (outside the cache region)
	dirtyBands  int64       // bands with cached > 0: the victim heaps' total size
	shelterPos  geom.Sector // tail of the last big in-place access

	cleaning metrics.Cleaning

	stalled  bool         // a stall clean already ran during this op
	unitsBuf []*bandState // scratch: the dirty bands of the unit being cleaned
}

var _ disk.Device = (*Device)(nil)

// New builds a banded device from the configuration.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	d := &Device{
		cfg:   cfg,
		inner: disk.New(),
		bands: make(map[int64]*bandState),
		cmap:  extmap.New(),
	}
	if cfg.CacheSectors > 0 {
		n := cfg.CacheSectors / cfg.UnitSectors
		if n < 1 {
			n = 1
		}
		d.units = make([]cacheUnit, n)
		d.victims = make([]victimHeap, n)
		for i := range d.units {
			d.units[i].start = cfg.DataSectors + geom.Sector(i)*cfg.UnitSectors
		}
	}
	return d, nil
}

// ModelName identifies the geometry in config labels ("band").
func (d *Device) ModelName() string { return "band" }

// Counters returns the inner head engine's seek statistics; cleaning
// I/O is included, exactly as the mechanical work happened.
func (d *Device) Counters() disk.Counters { return d.inner.Counters() }

// Position returns the sector following the previous physical I/O.
func (d *Device) Position() geom.Sector { return d.inner.Position() }

// AddObserver registers an observer on the inner engine; it sees every
// physical access, cleaning included.
func (d *Device) AddObserver(o disk.Observer) { d.inner.AddObserver(o) }

// Cleaning returns the cache/cleaning counters, with the dirty-band
// gauge sampled now.
func (d *Device) Cleaning() metrics.Cleaning {
	c := d.cleaning
	c.DirtyBands = d.dirtyBands
	return c
}

// band returns the index of the band containing s.
func (d *Device) band(s geom.Sector) int64 { return int64(s) / d.cfg.BandSectors }

func (d *Device) bandStart(b int64) geom.Sector { return geom.Sector(b) * d.cfg.BandSectors }

func (d *Device) bandEnd(b int64) geom.Sector {
	end := geom.Sector(b+1) * d.cfg.BandSectors
	if end > d.cfg.DataSectors {
		end = d.cfg.DataSectors
	}
	return end
}

// state returns the band's bookkeeping, creating it at the band's
// pristine state (write pointer at the band start) on first touch.
func (d *Device) state(b int64) *bandState {
	bs := d.bands[b]
	if bs == nil {
		bs = &bandState{index: b, wmark: d.bandStart(b), pos: -1}
		d.bands[b] = bs
	}
	return bs
}

// noteCrossings charges the band boundaries a data-region access sweeps.
func (d *Device) noteCrossings(ext geom.Extent) {
	if ext.Start >= d.cfg.DataSectors {
		return
	}
	end := ext.End()
	if end > d.cfg.DataSectors {
		end = d.cfg.DataSectors
	}
	if n := d.band(end-1) - d.band(ext.Start); n > 0 {
		d.cleaning.BandCrossings += n
	}
}

// noteTail moves the shelter point after a big in-place access.
func (d *Device) noteTail(ext geom.Extent) {
	if ext.Count > d.cfg.ShelterSectors && ext.End() <= d.cfg.DataSectors {
		d.shelterPos = ext.End()
	}
}

// advance pushes the write pointers of every band [ext.Start, ext.End())
// covers at least to the written extent's end within each band.
func (d *Device) advance(ext geom.Extent) {
	end := ext.End()
	if end > d.cfg.DataSectors {
		end = d.cfg.DataSectors
	}
	for cur := ext.Start; cur < end; {
		b := d.band(cur)
		bs := d.state(b)
		chunkEnd := d.bandEnd(b)
		if chunkEnd > end {
			chunkEnd = end
		}
		if chunkEnd > bs.wmark {
			bs.wmark = chunkEnd
		}
		cur = chunkEnd
	}
}

// Do performs one host I/O. With the cache disabled every access is
// a single pass-through of the inner engine — bit-identical to the
// infinite model — while band write pointers are still tracked. With
// the cache enabled, reads resolve through the cache map and rewrites
// below a band's write pointer are redirected per the policy, so one
// host I/O may cost several physical accesses, each counted and
// delivered to the observers on its own.
func (d *Device) Do(kind disk.OpKind, ext geom.Extent) {
	if ext.Empty() {
		return
	}
	d.noteCrossings(ext)
	if d.cfg.CacheSectors == 0 {
		if kind == disk.Write {
			d.cleaning.HostWriteSectors += ext.Count
			d.advance(ext)
			d.noteTail(ext)
		}
		d.inner.Do(kind, ext)
		return
	}
	d.stalled = false
	if kind == disk.Read {
		d.doRead(ext)
	} else {
		d.doWrite(ext)
	}
	d.softClean()
}

// doRead resolves the host extent through the cache map: identity
// pieces are read in place, redirected pieces at their cache location —
// the extra seeks that make cached data expensive to read back.
func (d *Device) doRead(ext geom.Extent) {
	d.cmap.LookupFunc(ext, func(r extmap.Resolved) bool {
		if !r.Identity {
			d.cleaning.CacheReads++
		}
		d.inner.Do(disk.Read, r.PhysExtent())
		return true
	})
	d.noteTail(ext)
}

// doWrite walks the host extent band by band, coalescing in-place runs
// (pieces at or above their band's write pointer) into single physical
// writes and redirecting rewrites into the cache.
func (d *Device) doWrite(ext geom.Extent) {
	d.cleaning.HostWriteSectors += ext.Count
	runStart := ext.Start
	flush := func(end geom.Sector) {
		if end > runStart {
			run := geom.Span(runStart, end)
			d.inner.Do(disk.Write, run)
			d.noteTail(run)
		}
	}
	for cur := ext.Start; cur < ext.End(); {
		if cur >= d.cfg.DataSectors {
			// Conventional space above the cache: pass through.
			cur = ext.End()
			break
		}
		b := d.band(cur)
		bs := d.state(b)
		chunkEnd := d.bandEnd(b)
		if chunkEnd > ext.End() {
			chunkEnd = ext.End()
		}
		if cur >= bs.wmark {
			// At or above the write pointer: shingle-friendly append.
			if chunkEnd > bs.wmark {
				bs.wmark = chunkEnd
			}
		} else {
			// Rewrite below the pointer: redirect to the cache. The
			// pointer advances past the piece first — so the redirected
			// range can never be shadowed by a later in-place write, and
			// so a clean triggered mid-redirect (a later piece's
			// allocation may have to clean this very band) sees the full
			// region and collects the pieces already inserted.
			flush(cur)
			if chunkEnd > bs.wmark {
				bs.wmark = chunkEnd
			}
			d.redirect(geom.Span(cur, chunkEnd), bs)
			runStart = chunkEnd
		}
		cur = chunkEnd
	}
	flush(ext.End())
}

// redirect places one rewrite piece (confined to a single band) into
// the persistent cache per the policy and records the mapping.
func (d *Device) redirect(ext geom.Extent, bs *bandState) {
	if d.cfg.Policy == Shelter && ext.Count <= d.cfg.ShelterSectors {
		if d.shelterWrite(ext, bs) {
			return
		}
	}
	// A piece never spans cache units; split to the unit size first.
	for cur := ext.Start; cur < ext.End(); {
		n := ext.End() - cur
		if n > d.cfg.UnitSectors {
			n = d.cfg.UnitSectors
		}
		piece := geom.Ext(cur, n)
		u := d.alloc(piece.Count, bs.index)
		phys := d.units[u].start + geom.Sector(d.units[u].fill)
		d.units[u].fill += piece.Count
		d.units[u].live += piece.Count
		d.cacheLive += piece.Count
		d.inner.Do(disk.Write, geom.Ext(phys, piece.Count))
		d.insert(piece, phys, bs)
		cur += n
	}
}

// insert records the mapping of a redirected piece of band bs to its
// physical location, releasing whatever older redirections it displaced.
func (d *Device) insert(devExt geom.Extent, phys geom.Sector, bs *bandState) {
	bs.cached += devExt.Count
	d.cmap.InsertFunc(devExt, phys, func(old extmap.Mapping) bool {
		d.release(old)
		bs.cached -= old.Lba.Count
		return true
	})
	d.reindex(bs)
	d.cleaning.CachedWrites++
	d.cleaning.CachedSectors += devExt.Count
}

// reindex restores the victim index after bs.cached changed: a band
// that became dirty enters its unit's heap, one that was cleaned leaves
// it, and one whose count moved is re-sifted.
func (d *Device) reindex(bs *bandState) {
	h := &d.victims[bs.index%int64(len(d.victims))]
	switch {
	case bs.cached > 0 && bs.pos < 0:
		heap.Push(h, bs)
		d.dirtyBands++
	case bs.cached > 0:
		heap.Fix(h, bs.pos)
	case bs.pos >= 0:
		heap.Remove(h, bs.pos)
		d.dirtyBands--
	}
}

// release drops the live accounting for one no-longer-mapped piece.
func (d *Device) release(m extmap.Mapping) {
	if m.Pba >= d.cfg.DataSectors {
		u := int((m.Pba - d.cfg.DataSectors) / geom.Sector(d.cfg.UnitSectors))
		if u >= 0 && u < len(d.units) {
			d.units[u].live -= m.Lba.Count
			if d.units[u].live == 0 {
				d.units[u].fill = 0 // whole log dead: reclaim it
			}
		}
		d.cacheLive -= m.Lba.Count
	} else {
		d.shelterLive -= m.Lba.Count
	}
}

// shelterWrite places a small rewrite at the shelter point — the
// unwritten tail of the band the head is already in — so it costs no
// seek. Reports false when the shelter band has no room, sending the
// piece down the cache path instead.
func (d *Device) shelterWrite(ext geom.Extent, bs *bandState) bool {
	sb := d.band(d.shelterPos)
	ss := d.state(sb)
	target := d.shelterPos
	if ss.wmark > target {
		target = ss.wmark
	}
	if target+geom.Sector(ext.Count) > d.bandEnd(sb) {
		return false
	}
	// Capacity: sheltered sectors draw on the cache budget; make room
	// like any redirected write would.
	d.ensureBudget(ext.Count)
	d.inner.Do(disk.Write, geom.Ext(target, ext.Count))
	if target+geom.Sector(ext.Count) > ss.wmark {
		ss.wmark = target + geom.Sector(ext.Count)
	}
	d.shelterLive += ext.Count
	d.insert(ext, target, bs)
	d.shelterPos = target + geom.Sector(ext.Count)
	return true
}

// alloc returns the index of the cache unit a piece of n sectors lands
// in, cleaning synchronously (a stall) when no unit has room. n never
// exceeds UnitSectors, and a full clean empties every unit, so this
// always terminates with room.
func (d *Device) alloc(n int64, b int64) int {
	if d.cfg.Policy == PolB {
		u := int(b % int64(len(d.units)))
		if d.units[u].fill+n > d.cfg.UnitSectors {
			d.cleanUnit(u)
		}
		return u
	}
	for {
		if u := d.nearestWithRoom(n); u >= 0 {
			return u
		}
		if !d.stallCleanOne() {
			// Nothing dirty left yet no room: every unit is pure
			// garbage-free live data — impossible by construction, but
			// never loop forever on a broken invariant.
			return 0
		}
	}
}

// nearestWithRoom picks the unit with room whose append position is
// closest to the head, minimizing the redirect seek (PolA's heuristic).
func (d *Device) nearestWithRoom(n int64) int {
	pos := d.inner.Position()
	best, bestDist := -1, int64(0)
	for i := range d.units {
		if d.units[i].fill+n > d.cfg.UnitSectors {
			continue
		}
		dist := int64(d.units[i].start) + d.units[i].fill - int64(pos)
		if dist < 0 {
			dist = -dist
		}
		if best < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// ensureBudget stall-cleans until the live total fits under the high
// watermark with n more sectors coming.
func (d *Device) ensureBudget(n int64) {
	hi := int64(d.cfg.CleanHi * float64(d.cfg.CacheSectors))
	for d.cacheLive+d.shelterLive+n > hi {
		if !d.stallCleanOne() {
			return
		}
	}
}

// softClean models idle-time cleaning: above the low watermark, clean
// one band per host operation. Skipped on ops that already stalled.
func (d *Device) softClean() {
	if d.stalled || d.dirtyBands == 0 {
		return
	}
	lo := int64(d.cfg.CleanLo * float64(d.cfg.CacheSectors))
	if d.cacheLive+d.shelterLive <= lo {
		if d.cfg.Policy == PolB {
			d.softCleanUnits()
		}
		return
	}
	if bs := d.dirtiestBand(-1); bs != nil {
		d.cleaning.CleanRuns++
		d.cleanBand(bs)
	}
}

// softCleanUnits is PolB's low-watermark rule: a unit filled past the
// low fraction cleans one of its assigned bands per op, so garbage-only
// logs drain back to empty without waiting for the hard trigger.
func (d *Device) softCleanUnits() {
	lo := int64(d.cfg.CleanLo * float64(d.cfg.UnitSectors))
	for u := range d.units {
		if d.units[u].fill <= lo {
			continue
		}
		if bs := d.dirtiestBand(u); bs != nil {
			d.cleaning.CleanRuns++
			d.cleanBand(bs)
			return
		}
	}
}

// stallCleanOne cleans the globally dirtiest band under a host op,
// charging a stall for the first such clean of the op. Reports false
// when no band is dirty.
func (d *Device) stallCleanOne() bool {
	bs := d.dirtiestBand(-1)
	if bs == nil {
		return false
	}
	d.cleaning.CleanRuns++
	if !d.stalled {
		d.stalled = true
		d.cleaning.Stalls++
	}
	before := d.cleaning.CleanReadSectors + d.cleaning.CleanWriteSectors
	d.cleanBand(bs)
	d.cleaning.StallSectors += d.cleaning.CleanReadSectors + d.cleaning.CleanWriteSectors - before
	return true
}

// cleanUnit is PolB's hard trigger: the band's own log is full, so
// every dirty band assigned to this unit is cleaned, in ascending band
// order — after which the unit's live count is zero and its log is
// reclaimed.
func (d *Device) cleanUnit(u int) {
	d.cleaning.CleanRuns++
	if !d.stalled {
		d.stalled = true
		d.cleaning.Stalls++
	}
	before := d.cleaning.CleanReadSectors + d.cleaning.CleanWriteSectors
	d.unitsBuf = append(d.unitsBuf[:0], d.victims[u]...)
	slices.SortFunc(d.unitsBuf, func(a, b *bandState) int { return cmp.Compare(a.index, b.index) })
	for _, bs := range d.unitsBuf {
		d.cleanBand(bs)
	}
	d.cleaning.StallSectors += d.cleaning.CleanReadSectors + d.cleaning.CleanWriteSectors - before
}

// dirtiestBand returns the first dirty band in victim order — most
// cached sectors, lowest band index on ties — or nil when none is
// dirty. unit >= 0 restricts the choice to PolB's assignment.
func (d *Device) dirtiestBand(unit int) *bandState {
	if unit >= 0 {
		if h := d.victims[unit]; len(h) > 0 {
			return h[0]
		}
		return nil
	}
	var best *bandState
	for _, h := range d.victims {
		if len(h) > 0 && (best == nil || cleansBefore(h[0], best)) {
			best = h[0]
		}
	}
	return best
}

// cleanBand read-modify-writes one dirty band: read its redirected
// pieces from wherever they live, read the band's in-place region,
// write the whole region back sequentially, and drop the mappings.
func (d *Device) cleanBand(bs *bandState) {
	// Every mapping of the band lies inside region: a redirected piece
	// never leaves its band and sits below the write pointer.
	region := geom.Span(d.bandStart(bs.index), bs.wmark)
	// Gather: the cached pieces first (the seeks to the cache are the
	// price of the earlier cheap writes), then the in-place survivors.
	d.cmap.LookupFunc(region, func(r extmap.Resolved) bool {
		if !r.Identity {
			d.inner.Do(disk.Read, r.PhysExtent())
			d.cleaning.CleanReadSectors += r.Lba.Count
		}
		return true
	})
	d.inner.Do(disk.Read, region)
	d.cleaning.CleanReadSectors += region.Count
	d.inner.Do(disk.Write, region)
	d.cleaning.CleanWriteSectors += region.Count
	d.cmap.DeleteFunc(region, func(m extmap.Mapping) bool {
		d.release(m)
		return true
	})
	bs.cached = 0
	d.reindex(bs)
	d.cleaning.BandsCleaned++
}

// CheckInvariants verifies the allocator's structural invariants — the
// fuzz target's oracle:
//   - no two mappings overlap physically (each cache sector backs at
//     most one device sector);
//   - every cache-region mapping lies below its unit's fill pointer;
//   - per-unit and global live counts equal the mapped totals;
//   - a band's cached count equals its mapped sectors, and the dirty
//     gauge counts exactly the bands with cached data;
//   - every mapping lies below its band's write pointer;
//   - the victim index holds exactly the bands with cached data, each in
//     its unit's heap at the position it records, parents before
//     children in victim order.
func (d *Device) CheckInvariants() error {
	if err := d.cmap.CheckInvariants(); err != nil {
		return err
	}
	unitLive := make([]int64, len(d.units))
	bandCached := make(map[int64]int64)
	var cacheLive, shelterLive int64
	type span struct{ start, end geom.Sector }
	var phys []span
	var fail error
	d.cmap.Walk(func(m extmap.Mapping) bool {
		phys = append(phys, span{m.Pba, m.PhysEnd()})
		if m.Pba >= d.cfg.DataSectors {
			u := int((m.Pba - d.cfg.DataSectors) / geom.Sector(d.cfg.UnitSectors))
			if u < 0 || u >= len(d.units) {
				fail = fmt.Errorf("mapping %v outside cache units", m)
				return false
			}
			end := m.Pba + geom.Sector(m.Lba.Count) - d.units[u].start
			if end > geom.Sector(d.units[u].fill) {
				fail = fmt.Errorf("mapping %v beyond unit %d fill %d", m, u, d.units[u].fill)
				return false
			}
			unitLive[u] += m.Lba.Count
			cacheLive += m.Lba.Count
		} else {
			shelterLive += m.Lba.Count
		}
		b := d.band(m.Lba.Start)
		bandCached[b] += m.Lba.Count
		if bs := d.bands[b]; bs == nil || m.Lba.End() > bs.wmark {
			fail = fmt.Errorf("mapping %v above band %d write pointer", m, b)
			return false
		}
		return true
	})
	if fail != nil {
		return fail
	}
	slices.SortFunc(phys, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	for i := 1; i < len(phys); i++ {
		if phys[i].start < phys[i-1].end {
			return fmt.Errorf("physical overlap: [%d,%d) and [%d,%d)",
				phys[i-1].start, phys[i-1].end, phys[i].start, phys[i].end)
		}
	}
	if cacheLive != d.cacheLive || shelterLive != d.shelterLive {
		return fmt.Errorf("live accounting: have cache=%d shelter=%d, want %d/%d",
			d.cacheLive, d.shelterLive, cacheLive, shelterLive)
	}
	for u := range d.units {
		if d.units[u].live != unitLive[u] {
			return fmt.Errorf("unit %d live %d, want %d", u, d.units[u].live, unitLive[u])
		}
		if d.units[u].fill < unitLive[u] || d.units[u].fill > d.cfg.UnitSectors {
			return fmt.Errorf("unit %d fill %d out of range (live %d, cap %d)",
				u, d.units[u].fill, unitLive[u], d.cfg.UnitSectors)
		}
	}
	var dirty int64
	for b, bs := range d.bands {
		if bs.cached != bandCached[b] {
			return fmt.Errorf("band %d cached %d, want %d", b, bs.cached, bandCached[b])
		}
		if bs.index != b {
			return fmt.Errorf("band %d records index %d", b, bs.index)
		}
		if bs.cached > 0 {
			dirty++
			u := b % int64(len(d.victims))
			if h := d.victims[u]; bs.pos < 0 || bs.pos >= len(h) || h[bs.pos] != bs {
				return fmt.Errorf("dirty band %d (cached %d) not at position %d of victim heap %d",
					b, bs.cached, bs.pos, u)
			}
		} else if bs.pos != -1 {
			return fmt.Errorf("clean band %d records victim position %d", b, bs.pos)
		}
		if bs.wmark < d.bandStart(b) || bs.wmark > d.bandEnd(b) {
			return fmt.Errorf("band %d write pointer %d outside band", b, bs.wmark)
		}
	}
	if dirty != d.dirtyBands {
		return fmt.Errorf("dirty gauge %d, want %d", d.dirtyBands, dirty)
	}
	// Every dirty band sits in its heap (checked above), so equal totals
	// mean the heaps hold nothing else.
	var indexed int64
	for u, h := range d.victims {
		indexed += int64(len(h))
		for i := 1; i < len(h); i++ {
			if cleansBefore(h[i], h[(i-1)/2]) {
				return fmt.Errorf("victim heap %d: band %d (cached %d) below band %d (cached %d)",
					u, h[i].index, h[i].cached, h[(i-1)/2].index, h[(i-1)/2].cached)
			}
		}
	}
	if indexed != dirty {
		return fmt.Errorf("victim index holds %d bands, want %d", indexed, dirty)
	}
	return nil
}
