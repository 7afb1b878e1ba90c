package core

import (
	"cmp"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// The selective cache's LBA index is tested differentially, in
// extmap/property_test.go's style: every operation is applied to the
// real SelectiveCache and to a brutally simple reference — a flat slice
// of keys in recency order whose invalidation tests every key against
// the write. That every-key scan is what SelectiveCache.Invalidate did
// before the index; it survives here as the oracle.

var cacheSeed = flag.Int64("selcache.seed", 0,
	"selective cache property test seed (0 = derive from time; the chosen seeds are logged)")

// checkInvariants verifies that every key is filed exactly once in each
// bucket it spans and in no other, that no empty bucket is left in the
// map, and that the index's distinct keys are exactly the LRU's.
func (s *SelectiveCache) checkInvariants() error {
	filed := map[extKey]int64{} // key -> buckets it is filed in
	for b, keys := range s.idx.buckets {
		if len(keys) == 0 {
			return fmt.Errorf("bucket %d is empty but still mapped", b)
		}
		for i, k := range keys {
			if k.count <= 0 {
				return fmt.Errorf("index holds empty extent %v", k.extent())
			}
			if first, last := bucketSpan(k.extent()); b < first || b > last {
				return fmt.Errorf("%v filed in bucket %d, outside its buckets %d..%d", k.extent(), b, first, last)
			}
			if slices.Contains(keys[i+1:], k) {
				return fmt.Errorf("%v filed twice in bucket %d", k.extent(), b)
			}
			filed[k]++
		}
	}
	for k, n := range filed {
		if first, last := bucketSpan(k.extent()); n != last-first+1 {
			return fmt.Errorf("%v filed in %d of its %d buckets", k.extent(), n, last-first+1)
		}
		if _, ok := s.c.Peek(k); !ok {
			return fmt.Errorf("index holds %v, which the LRU does not", k.extent())
		}
	}
	if len(filed) != s.c.Len() {
		return fmt.Errorf("index holds %d keys, LRU %d", len(filed), s.c.Len())
	}
	return nil
}

func compareKeys(a, b extKey) int {
	return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.count, b.count))
}

// indexKeys lists the indexed keys in ascending order, each taken once,
// from its first bucket.
func (s *SelectiveCache) indexKeys() []extKey {
	var out []extKey
	for b, keys := range s.idx.buckets {
		for _, k := range keys {
			if first, _ := bucketSpan(k.extent()); first == b {
				out = append(out, k)
			}
		}
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// cachedBytes sums the sizes of the indexed keys, which checkInvariants
// ties to the LRU's keys.
func (s *SelectiveCache) cachedBytes() int64 {
	var n int64
	for _, k := range s.indexKeys() {
		n += k.extent().Bytes()
	}
	return n
}

// coveredByUnion reports whether every sector of e lies in some cached
// extent — a containment hit, where exact-extent keying sees a miss.
// Only keys in e's own buckets can cover any of it. Swept in start
// order, the first key that starts past the covered prefix proves a
// gap, since every later key starts later still.
func (s *SelectiveCache) coveredByUnion(e geom.Extent) bool {
	keys := s.idx.appendOverlapping(nil, e)
	slices.SortFunc(keys, compareKeys)
	reach := e.Start
	for _, k := range keys {
		if k.start > reach {
			break
		}
		reach = max(reach, k.extent().End())
	}
	return reach >= e.End()
}

// flatCache is the reference model: keys from most to least recently
// used, every operation a linear pass.
type flatCache struct {
	capacity int64
	keys     []extKey
}

func (m *flatCache) used() int64 {
	var n int64
	for _, k := range m.keys {
		n += k.extent().Bytes()
	}
	return n
}

// touch moves keys[i] to the front.
func (m *flatCache) touch(i int) {
	k := m.keys[i]
	copy(m.keys[1:i+1], m.keys[:i])
	m.keys[0] = k
}

func (m *flatCache) has(e geom.Extent) bool {
	i := slices.Index(m.keys, keyOf(e))
	if i < 0 {
		return false
	}
	m.touch(i)
	return true
}

func (m *flatCache) insert(e geom.Extent) {
	if e.Empty() {
		return
	}
	if i := slices.Index(m.keys, keyOf(e)); i >= 0 {
		m.touch(i)
		return
	}
	m.keys = slices.Insert(m.keys, 0, keyOf(e))
	for used := m.used(); used > m.capacity; {
		last := len(m.keys) - 1
		used -= m.keys[last].extent().Bytes()
		m.keys = m.keys[:last]
	}
}

// invalidate is the pre-index scan: test every cached key against the
// write. It returns the keys it dropped.
func (m *flatCache) invalidate(w geom.Extent) []extKey {
	var dropped []extKey
	kept := m.keys[:0]
	for _, k := range m.keys {
		if k.extent().Overlaps(w) {
			dropped = append(dropped, k)
			continue
		}
		kept = append(kept, k)
	}
	m.keys = kept
	return dropped
}

// cacheOp is one step of a differential run.
type cacheOp struct {
	kind opKind
	ext  geom.Extent
}

type opKind uint8

const (
	opRead       opKind = iota // Has, then Insert on a miss: stepRead's per-fragment sequence
	opInsert                   // bare Insert (re-inserts of present keys included)
	opInvalidate               // a host write
	opKinds
)

// runCacheOps applies ops to a SelectiveCache and to the flat model and
// fails on the first difference: a hit one side misses, a write that
// drops a different key set, entry or byte counts apart. Invariants and
// the whole key set are compared every checkEvery ops and at the end.
func runCacheOps(t testing.TB, capacity int64, ops []cacheOp, checkEvery int) *SelectiveCache {
	t.Helper()
	s := NewSelectiveCache(CacheConfig{CapacityBytes: capacity})
	ref := &flatCache{capacity: capacity}
	check := func(i int) {
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want := slices.Clone(ref.keys)
		slices.SortFunc(want, compareKeys)
		if got := s.indexKeys(); !slices.Equal(got, want) {
			t.Fatalf("op %d: index holds %v, reference %v", i, got, want)
		}
		if got, want := s.cachedBytes(), ref.used(); got != want {
			t.Fatalf("op %d: cached bytes = %d, reference %d", i, got, want)
		}
	}
	var invalidations int64
	for i, op := range ops {
		switch op.kind {
		case opRead:
			got, want := s.Has(op.ext), ref.has(op.ext)
			if got != want {
				t.Fatalf("op %d: Has(%v) = %v, reference %v", i, op.ext, got, want)
			}
			if !got {
				s.Insert(op.ext)
				ref.insert(op.ext)
			}
		case opInsert:
			s.Insert(op.ext)
			ref.insert(op.ext)
		case opInvalidate:
			got, want := s.Invalidate(op.ext), ref.invalidate(op.ext)
			if got != len(want) {
				t.Fatalf("op %d: Invalidate(%v) dropped %d keys, the scan dropped %v", i, op.ext, got, want)
			}
			// Same key set before (by induction), same number dropped,
			// and none of the scan's victims left: the same set dropped.
			for _, k := range want {
				if _, ok := s.c.Peek(k); ok {
					t.Fatalf("op %d: Invalidate(%v) kept %v, which the scan dropped", i, op.ext, k.extent())
				}
			}
			invalidations += int64(got)
		}
		if got, want := s.c.Len(), len(ref.keys); got != want {
			t.Fatalf("op %d (%d %v): entries = %d, reference %d", i, op.kind, op.ext, got, want)
		}
		if i%checkEvery == 0 {
			check(i)
		}
	}
	check(len(ops))
	if s.Invalidations() != invalidations {
		t.Fatalf("Invalidations = %d, dropped %d", s.Invalidations(), invalidations)
	}
	return s
}

// TestSelectiveCacheIndexProperty drives random insert / read /
// invalidate sequences, under capacity pressure and with empty and
// larger-than-capacity extents mixed in, against the flat model.
// Failures log the seed; rerun with -selcache.seed to reproduce.
func TestSelectiveCacheIndexProperty(t *testing.T) {
	seed := *cacheSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	const (
		device   = 4096       // small address space => dense overlap among keys
		capacity = 1024 * 512 // a quarter of it, ~120 keys => steady capacity eviction
		ops      = 4000
	)
	for _, seed := range []int64{seed, seed + 1, seed + 2} {
		t.Logf("selective cache property seed %d (rerun: go test ./internal/core -run IndexProperty -selcache.seed %d)", seed, seed)
		rng := rand.New(rand.NewSource(seed))
		randExt := func() geom.Extent { return geom.Ext(rng.Int63n(device), rng.Int63n(17)) } // count 0 included
		// Reads and inserts draw from a pool some four times the
		// capacity, so keys recur (hits, re-inserts) and are evicted.
		pool := make([]geom.Extent, 512)
		for i := range pool {
			pool[i] = randExt()
		}
		seq := make([]cacheOp, ops)
		for i := range seq {
			op := cacheOp{kind: opKind(rng.Intn(int(opKinds))), ext: pool[rng.Intn(len(pool))]}
			switch {
			case op.kind == opInvalidate:
				op.ext = randExt()
			case rng.Intn(1000) == 0:
				op.ext.Count = capacity/512 + 1 + rng.Int63n(8) // never fits: empties the cache
			case rng.Intn(2) == 0:
				op.kind = opRead // keep the cache populated
			}
			seq[i] = op
		}
		s := runCacheOps(t, capacity, seq, 1)
		if s.Hits() < 100 || s.Invalidations() < 100 {
			t.Errorf("seed %d: degenerate run: %d hits, %d invalidations", seed, s.Hits(), s.Invalidations())
		}
	}
}

// FuzzSelectiveCacheIndex decodes three bytes per op — kind, start,
// length — into the same differential run, on a cache that a few dozen
// short extents fill and the longest ones exceed outright.
func FuzzSelectiveCacheIndex(f *testing.F) {
	f.Add([]byte{1, 10, 8, 1, 14, 8, 2, 12, 1, 0, 10, 8})              // overlapping keys, one write drops both
	f.Add([]byte{1, 0, 12, 1, 0, 12, 2, 0, 1})                         // re-insert, invalidate nothing
	f.Add([]byte{0, 1, 15, 0, 30, 15, 0, 60, 15, 0, 90, 15, 0, 1, 15}) // reads that miss, then hit
	f.Add([]byte{1, 5, 0, 2, 5, 0, 1, 5, 255, 1, 7, 3})                // empty extents, then one larger than the cache
	// Keys straddling the first bucket edge, at sector 256, and writes
	// that reach it from below.
	f.Add([]byte{1, 250, 10, 0, 255, 4, 1, 241, 15, 2, 255, 1, 0, 250, 10, 2, 200, 15})
	f.Add([]byte{1, 252, 8, 1, 200, 250, 1, 255, 2, 2, 254, 3, 0, 252, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 128 * 512
		ops := make([]cacheOp, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			count := int64(data[2] % 16)
			if data[2] >= 250 {
				count += capacity / 512
			}
			ops = append(ops, cacheOp{
				kind: opKind(data[0]) % opKinds,
				ext:  geom.Ext(geom.Sector(data[1]), count),
			})
		}
		runCacheOps(t, capacity, ops, 1)
	})
}

// The over-approximating coverage set used to forgive an index that
// drifted from the LRU; these are the three ways it could drift.

func TestOversizeEntryNotIndexed(t *testing.T) {
	s := NewSelectiveCache(CacheConfig{CapacityBytes: 4 * 512})
	s.Insert(geom.Ext(0, 2))
	s.Insert(geom.Ext(100, 5)) // larger than the whole cache: evicts [0,2), then itself
	if s.c.Len() != 0 || s.cachedBytes() != 0 {
		t.Fatalf("entries=%d used=%d after an oversize insert, want an empty cache", s.c.Len(), s.cachedBytes())
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Invalidate(geom.Ext(0, 200)); got != 0 {
		t.Errorf("Invalidate dropped %d entries from an empty cache", got)
	}
}

func TestReinsertFilesKeyOnce(t *testing.T) {
	s := NewSelectiveCache(CacheConfig{CapacityBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		s.Insert(geom.Ext(250, 10)) // straddles the edge between buckets 0 and 1
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if n0, n1 := len(s.idx.buckets[0]), len(s.idx.buckets[1]); n0 != 1 || n1 != 1 || s.c.Len() != 1 {
		t.Fatalf("buckets hold %d and %d keys, entries=%d after three inserts of one key, want 1 each", n0, n1, s.c.Len())
	}
	if got := s.Invalidate(geom.Ext(258, 1)); got != 1 {
		t.Errorf("Invalidate dropped %d entries, want 1", got)
	}
}

// TestBucketBoundaries covers the cases that turn on the bucket grid
// rather than on extents alone.
func TestBucketBoundaries(t *testing.T) {
	const width = 1 << bucketShift
	check := func(s *SelectiveCache) {
		t.Helper()
		if err := s.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	// A key across four buckets is dropped by a write that touches only
	// its last one.
	s := NewSelectiveCache(CacheConfig{CapacityBytes: 1 << 20})
	s.Insert(geom.Ext(width-1, 2*width+2)) // buckets 0..3
	s.Insert(geom.Ext(4*width, 8))         // bucket 4, untouched
	check(s)
	if got := s.Invalidate(geom.Ext(3*width, 1)); got != 1 || s.c.Len() != 1 {
		t.Fatalf("write in the last bucket dropped %d entries, %d left; want 1 and 1", got, s.c.Len())
	}
	if len(s.idx.buckets) != 1 {
		t.Fatalf("%d buckets mapped after the drop, want 1", len(s.idx.buckets))
	}
	check(s)

	// A key larger than the whole cache flushes it and leaves no bucket
	// behind, however many buckets it spans and even where its size in
	// bytes overflows int64.
	s = NewSelectiveCache(CacheConfig{CapacityBytes: 4 * width * geom.SectorSize})
	s.Insert(geom.Ext(0, 2))
	for _, e := range []geom.Extent{geom.Ext(width/2, 4*width+1), geom.Ext(0, 1<<60)} {
		s.Insert(e)
		if s.c.Len() != 0 || s.cachedBytes() != 0 || len(s.idx.buckets) != 0 {
			t.Fatalf("after inserting %v: entries=%d used=%d buckets=%d, want an empty cache", e, s.c.Len(), s.cachedBytes(), len(s.idx.buckets))
		}
		check(s)
	}

	// Every key straddles a bucket edge. A write wider than the index
	// has buckets drops them all, and re-inserting them reuses the
	// emptied buckets' storage instead of allocating.
	keys := []geom.Extent{geom.Ext(width-4, 8), geom.Ext(3*width-1, 2), geom.Ext(7*width-8, 16)}
	cycle := func() {
		for _, e := range keys {
			s.Insert(e)
		}
		if got := s.Invalidate(geom.Ext(0, 1<<40)); got != len(keys) {
			t.Fatalf("full invalidation dropped %d entries, want %d", got, len(keys))
		}
	}
	cycle()
	if len(s.idx.buckets) != 0 || len(s.idx.spare) != 2*len(keys) {
		t.Fatalf("after a full invalidation: %d buckets mapped, %d spare, want 0 and %d", len(s.idx.buckets), len(s.idx.spare), 2*len(keys))
	}
	check(s)
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("insert and full invalidation allocated %.1f times per cycle once warm, want 0", allocs)
	}
}

func TestEmptyExtentsAreNoOps(t *testing.T) {
	s := NewSelectiveCache(CacheConfig{CapacityBytes: 1 << 20})
	s.Insert(geom.Ext(10, 10))
	s.Insert(geom.Ext(12, 0))
	s.Insert(geom.Ext(12, -3))
	if got := s.Invalidate(geom.Ext(12, 0)); got != 0 {
		t.Errorf("empty Invalidate dropped %d entries", got)
	}
	if got := s.Invalidate(geom.Ext(12, -3)); got != 0 {
		t.Errorf("negative Invalidate dropped %d entries", got)
	}
	if s.c.Len() != 1 || s.Invalidations() != 0 {
		t.Errorf("entries=%d invalidations=%d, want 1 and 0", s.c.Len(), s.Invalidations())
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// lsCacheOps turns passes replays of recs into the cache operations an
// LS+cache simulator performs: a write invalidates its extent, and each
// fragment of a fragmented read is looked up and, on a miss, inserted.
// Fragment boundaries come from a real stl.LS, so the sequence depends
// on the translation layer only, not on the cache it is fed to.
func lsCacheOps(recs []trace.Record, passes int) []cacheOp {
	ls := stl.NewLS(trace.MaxLBA(recs))
	var ops []cacheOp
	var frags []stl.Fragment
	for p := 0; p < passes; p++ {
		for _, rec := range recs {
			if rec.Kind == disk.Write {
				ls.WriteAppend(nil, rec.Extent)
				ops = append(ops, cacheOp{kind: opInvalidate, ext: rec.Extent})
				continue
			}
			frags = ls.ResolveAppend(frags[:0], rec.Extent)
			if len(frags) > 1 {
				for _, f := range frags {
					ops = append(ops, cacheOp{kind: opRead, ext: f.Lba})
				}
			}
		}
	}
	return ops
}

func catalogRecords(t testing.TB, name string, scale float64) []trace.Record {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Generate(scale)
}

// simulate runs passes replays of recs through a real LS+cache
// simulator — what lsCacheOps claims to reproduce.
func simulate(t *testing.T, recs []trace.Record, passes int, capacity int64) Stats {
	t.Helper()
	sim := mustSim(t, Config{LogStructured: true, FrontierStart: trace.MaxLBA(recs), Cache: &CacheConfig{CapacityBytes: capacity}})
	for p := 0; p < passes; p++ {
		for _, rec := range recs {
			sim.Step(rec)
		}
	}
	return sim.Stats()
}

// TestInvalidateMatchesScan replays aged w91 (two passes, as mech-pipe
// ages its volume) and the write-heavy w36 through the index-backed
// cache and the every-key scan, demanding the same dropped key set on
// every write — and the counters a real simulator reports for the same
// records. The capacities are below the paper's 64 MB so that both
// caches fill and capacity evictions interleave with invalidations at a
// scale the linear reference model replays in a second or two.
func TestInvalidateMatchesScan(t *testing.T) {
	cases := []struct {
		name     string
		scale    float64
		capacity int64
	}{
		{"w91", 0.5, 8 << 20},
		{"w36", 0.3, 4 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scale := tc.scale
			if testing.Short() {
				scale /= 4
			}
			recs := catalogRecords(t, tc.name, scale)
			ops := lsCacheOps(recs, 2)
			s := runCacheOps(t, tc.capacity, ops, 5000)
			st := simulate(t, recs, 2, tc.capacity)
			if s.Hits() != st.CacheHits || s.Misses() != st.CacheMisses || s.Invalidations() != st.CacheInvalidations {
				t.Errorf("replayed ops gave hits/misses/invalidations %d/%d/%d, the simulator %d/%d/%d",
					s.Hits(), s.Misses(), s.Invalidations(), st.CacheHits, st.CacheMisses, st.CacheInvalidations)
			}
			if s.Invalidations() == 0 || s.Hits() == 0 {
				t.Errorf("degenerate run: %d hits, %d invalidations", s.Hits(), s.Invalidations())
			}
			if !testing.Short() && s.cachedBytes() < tc.capacity*9/10 {
				t.Errorf("cache ended at %d of %d bytes: no capacity pressure", s.cachedBytes(), tc.capacity)
			}
			t.Logf("%s x %.2f, 2 passes: %d ops, %d entries (%d of %d KiB) at the end, hits/misses/invalidations %d/%d/%d",
				tc.name, scale, len(ops), s.c.Len(), s.cachedBytes()>>10, tc.capacity>>10, s.Hits(), s.Misses(), s.Invalidations())
		})
	}
}

// TestContainmentCensus is ROADMAP item 1(b): for every catalog workload
// under LS+cache (Figure 11's configuration and scale), how many
// fragment lookups hit their exact key, and how many of the misses were
// nonetheless fully covered by the union of cached extents — hits under
// containment semantics, misses under this repo's exact-extent keys. It
// changes nothing: the table is logged for EXPERIMENTS.md.
func TestContainmentCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("census over the whole catalog")
	}
	t.Logf("%-8s %9s %9s %9s %8s %8s", "workload", "lookups", "exact", "contained", "exact%", "+cont%")
	for _, p := range workload.Catalog() {
		recs := p.Generate(0.5)
		s := NewSelectiveCache(DefaultCacheConfig())
		var lookups, contained int64
		for _, op := range lsCacheOps(recs, 1) {
			if op.kind == opInvalidate {
				s.Invalidate(op.ext)
				continue
			}
			lookups++
			if s.Has(op.ext) {
				continue
			}
			if s.coveredByUnion(op.ext) {
				contained++
			}
			s.Insert(op.ext)
		}
		if st := simulate(t, recs, 1, DefaultCacheConfig().CapacityBytes); s.Hits() != st.CacheHits || s.Misses() != st.CacheMisses {
			t.Errorf("%s: census saw hits/misses %d/%d, the simulator %d/%d", p.Name, s.Hits(), s.Misses(), st.CacheHits, st.CacheMisses)
		}
		pct := func(n int64) float64 {
			if lookups == 0 {
				return 0
			}
			return 100 * float64(n) / float64(lookups)
		}
		t.Logf("%-8s %9d %9d %9d %7.1f%% %7.1f%%", p.Name, lookups, s.Hits(), contained, pct(s.Hits()), pct(s.Hits()+contained))
	}
}

func TestCoveredByUnion(t *testing.T) {
	s := NewSelectiveCache(CacheConfig{CapacityBytes: 1 << 20})
	for _, e := range []geom.Extent{geom.Ext(0, 10), geom.Ext(5, 10), geom.Ext(15, 5), geom.Ext(30, 10), geom.Ext(2, 3)} {
		s.Insert(e)
	}
	cases := []struct {
		e    geom.Extent
		want bool
	}{
		{geom.Ext(0, 20), true},   // three keys chained end to start
		{geom.Ext(3, 4), true},    // inside one key
		{geom.Ext(12, 6), true},   // spans the [5,15) / [15,20) seam
		{geom.Ext(0, 21), false},  // one sector past the chain
		{geom.Ext(18, 14), false}, // the [20,30) gap
		{geom.Ext(25, 2), false},  // entirely in the gap
		{geom.Ext(30, 10), true},
		{geom.Ext(100, 1), false},
	}
	for _, tc := range cases {
		if got := s.coveredByUnion(tc.e); got != tc.want {
			t.Errorf("coveredByUnion(%v) = %v, want %v", tc.e, got, tc.want)
		}
	}
}
