package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

func rd(lba, n int64) trace.Record {
	return trace.Record{Kind: disk.Read, Extent: geom.Ext(lba, n)}
}

func wr(lba, n int64) trace.Record {
	return trace.Record{Kind: disk.Write, Extent: geom.Ext(lba, n)}
}

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, cfg Config, recs []trace.Record) Stats {
	t.Helper()
	s := mustSim(t, cfg)
	st, err := s.Run(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestConfigNameAndValidate(t *testing.T) {
	d, p, c := DefaultDefragConfig(), DefaultPrefetchConfig(), DefaultCacheConfig()
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "NoLS"},
		{Config{LogStructured: true}, "LS"},
		{Config{LogStructured: true, Defrag: &d}, "LS+defrag"},
		{Config{LogStructured: true, Prefetch: &p}, "LS+prefetch"},
		{Config{LogStructured: true, Cache: &c}, "LS+cache"},
		{Config{LogStructured: true, Defrag: &d, Prefetch: &p, Cache: &c}, "LS+defrag+prefetch+cache"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
		if err := tc.cfg.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", tc.want, err)
		}
	}
	if err := (Config{Cache: &c}).Validate(); err == nil {
		t.Error("mechanisms without LS must be rejected")
	}
	if err := (Config{LogStructured: true, FrontierStart: -1}).Validate(); err == nil {
		t.Error("negative frontier must be rejected")
	}
	if _, err := NewSimulator(Config{Defrag: &d}); err == nil {
		t.Error("NewSimulator must validate")
	}
}

func TestNoLSCountsRawSeeks(t *testing.T) {
	// Alternating far-apart reads/writes: every op after the first seeks.
	recs := []trace.Record{rd(0, 8), wr(10000, 8), rd(20000, 8), wr(0, 8)}
	st := run(t, Config{}, recs)
	if st.Disk.ReadSeeks != 1 || st.Disk.WriteSeeks != 2 {
		t.Errorf("seeks = %+v", st.Disk)
	}
	if st.Reads != 2 || st.Writes != 2 {
		t.Errorf("ops = %+v", st)
	}
}

func TestLSEliminatesWriteSeeks(t *testing.T) {
	// Random-LBA writes: NoLS seeks on every write, LS on none (after the
	// first positioning, the frontier advances sequentially).
	var recs []trace.Record
	lbas := []int64{5000, 100, 9000, 42, 7777, 1234}
	for _, l := range lbas {
		recs = append(recs, wr(l, 8))
	}
	base := run(t, Config{}, recs)
	ls := run(t, Config{LogStructured: true, FrontierStart: trace.MaxLBA(recs)}, recs)
	if base.Disk.WriteSeeks != int64(len(lbas)-1) {
		t.Errorf("NoLS write seeks = %d", base.Disk.WriteSeeks)
	}
	if ls.Disk.WriteSeeks != 0 {
		t.Errorf("LS write seeks = %d, want 0", ls.Disk.WriteSeeks)
	}
}

// TestDefragWorkedExample reproduces Figure 6 step by step.
func TestDefragWorkedExample(t *testing.T) {
	// Initial state: LBA 1..6 written contiguously to the log.
	setup := []trace.Record{wr(1, 6)}
	fragWrites := []trace.Record{wr(3, 1), wr(5, 1)}
	read25 := rd(2, 4) // LBA range 2..5 inclusive

	// Without defrag: first read of 2..5 touches 4 fragments (t_C: "three
	// additional seeks" over the one a contiguous read would need), and a
	// re-read costs the same again.
	cfg := Config{LogStructured: true, FrontierStart: 100}
	sim := mustSim(t, cfg)
	for _, r := range append(append([]trace.Record{}, setup...), fragWrites...) {
		sim.Step(r)
	}
	before := sim.Stats().Disk.ReadSeeks
	sim.Step(read25)
	first := sim.Stats().Disk.ReadSeeks - before
	sim.Step(read25)
	second := sim.Stats().Disk.ReadSeeks - before - first
	if first != 4 { // 1 positioning + 3 additional (fig 6 t_C)
		t.Errorf("first read seeks = %d, want 4", first)
	}
	if second != 4 {
		t.Errorf("re-read without defrag seeks = %d, want 4", second)
	}

	// With defrag (t_D): the read triggers a write-back; the re-read
	// (t_E) then costs a single positioning seek and no fragmentation.
	d := DefaultDefragConfig()
	cfgD := Config{LogStructured: true, FrontierStart: 100, Defrag: &d}
	simD := mustSim(t, cfgD)
	for _, r := range append(append([]trace.Record{}, setup...), fragWrites...) {
		simD.Step(r)
	}
	simD.Step(read25)
	st := simD.Stats()
	if st.DefragWritebacks != 1 || st.DefragSectors != 4 {
		t.Fatalf("defrag stats = %+v", st)
	}
	preReread := st.Disk.ReadSeeks
	simD.Step(read25)
	reread := simD.Stats().Disk.ReadSeeks - preReread
	if reread != 1 {
		t.Errorf("re-read after defrag seeks = %d, want 1", reread)
	}
	// t_F: a read of LBA 1..2 now crosses old and new placements — the
	// extra seek defrag imposed.
	preF := simD.Stats().Disk.ReadSeeks
	simD.Step(rd(1, 2))
	if got := simD.Stats().Disk.ReadSeeks - preF; got != 2 {
		t.Errorf("read 1..2 after defrag seeks = %d, want 2", got)
	}
}

// TestPrefetchWorkedExample reproduces Figure 9 step by step.
func TestPrefetchWorkedExample(t *testing.T) {
	// LBA 1..6 in the log, then LBAs 3, 2, 4 updated (t_A..t_C).
	setup := []trace.Record{wr(1, 6), wr(3, 1), wr(2, 1), wr(4, 1)}
	read15 := rd(1, 5) // LBA 1..5

	// Without prefetching (t_D): 5 seeks, "of which 2 are due to
	// fragmentation"... our accounting: fragments are 1 | 2 | 3 | 4 | 5 →
	// phys P1, P8, P7, P9, P5: every fragment access seeks (the write
	// left the head at the frontier) = 5 seeks.
	cfg := Config{LogStructured: true, FrontierStart: 100}
	sim := mustSim(t, cfg)
	for _, r := range setup {
		sim.Step(r)
	}
	sim.Step(read15)
	if got := sim.Stats().Disk.ReadSeeks; got != 5 {
		t.Errorf("read seeks without prefetch = %d, want 5", got)
	}

	// With look-ahead-behind (t_D'): reading LBA 2 (phys middle of the
	// update burst) buffers LBA 3 (behind) and LBA 4 (ahead) → 3 seeks.
	p := PrefetchConfig{LookBehindSectors: 1, LookAheadSectors: 1, BufferBytes: 1 << 20}
	cfgP := Config{LogStructured: true, FrontierStart: 100, Prefetch: &p}
	simP := mustSim(t, cfgP)
	for _, r := range setup {
		simP.Step(r)
	}
	simP.Step(read15)
	st := simP.Stats()
	if got := st.Disk.ReadSeeks; got != 3 {
		t.Errorf("read seeks with prefetch = %d, want 3", got)
	}
	if st.PrefetchHits != 2 {
		t.Errorf("prefetch hits = %d, want 2 (LBA 3 and 4)", st.PrefetchHits)
	}
}

func TestSelectiveCacheEliminatesRereadSeeks(t *testing.T) {
	c := DefaultCacheConfig()
	cfg := Config{LogStructured: true, FrontierStart: 1000, Cache: &c}
	sim := mustSim(t, cfg)
	// Fragment LBA 10..20 badly, then read it twice.
	sim.Step(wr(10, 10))
	for i := int64(10); i < 20; i += 2 {
		sim.Step(wr(i, 1))
	}
	sim.Step(rd(10, 10))
	afterFirst := sim.Stats()
	if afterFirst.FragmentedReads != 1 || afterFirst.CacheHits != 0 {
		t.Fatalf("first read stats = %+v", afterFirst)
	}
	sim.Step(rd(10, 10))
	st := sim.Stats()
	extra := st.Disk.ReadSeeks - afterFirst.Disk.ReadSeeks
	if extra != 0 {
		t.Errorf("re-read caused %d seeks, want 0 (all fragments cached)", extra)
	}
	if st.CacheHits == 0 {
		t.Error("expected cache hits on re-read")
	}
	// A write into the range invalidates; the next read goes to disk.
	sim.Step(wr(12, 2))
	if sim.Stats().CacheInvalidations == 0 {
		t.Error("write should invalidate overlapping entries")
	}
	pre := sim.Stats().Disk.ReadSeeks
	sim.Step(rd(10, 10))
	if sim.Stats().Disk.ReadSeeks == pre {
		t.Error("read after invalidation should touch disk")
	}
}

func TestUnfragmentedReadsBypassMechanisms(t *testing.T) {
	c, p := DefaultCacheConfig(), DefaultPrefetchConfig()
	cfg := Config{LogStructured: true, FrontierStart: 1000, Cache: &c, Prefetch: &p}
	sim := mustSim(t, cfg)
	sim.Step(wr(0, 100))
	sim.Step(rd(0, 100)) // single fragment
	sim.Step(rd(0, 100))
	st := sim.Stats()
	if st.FragmentedReads != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.PrefetchHits != 0 {
		t.Errorf("mechanisms touched by unfragmented reads: %+v", st)
	}
}

func TestApplyFragmentsAndStatsFields(t *testing.T) {
	cfg := Config{LogStructured: true, FrontierStart: 1000}
	sim := mustSim(t, cfg)
	sim.Step(wr(0, 10))
	if got := sim.Apply(wr(2, 2)); got != 0 {
		t.Errorf("Apply(write) = %d fragments, want 0", got)
	}
	if got := sim.Apply(rd(0, 10)); got != 3 {
		t.Errorf("Apply(read) = %d fragments, want 3", got)
	}
	if err := sim.Commit(); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.TotalFragments != 3 || st.MaxFragments != 3 || st.FragmentedReads != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Empty records are ignored.
	if got := sim.Apply(trace.Record{Kind: disk.Read}); got != 0 {
		t.Errorf("Apply(empty) = %d fragments, want 0", got)
	}
	if sim.Stats().Reads != 1 {
		t.Error("empty record should be skipped")
	}
}

func TestCompareSAF(t *testing.T) {
	// Sequential-read-after-random-write: the paper's log-sensitive toy.
	var recs []trace.Record
	recs = append(recs, wr(0, 1000))
	for i := int64(0); i < 1000; i += 10 {
		recs = append(recs, wr(i, 1))
	}
	for rep := 0; rep < 5; rep++ {
		recs = append(recs, rd(0, 1000))
	}
	cmp, err := ComparePaperContext(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Variants) != 4 {
		t.Fatalf("variants = %d", len(cmp.Variants))
	}
	ls, ok := cmp.VariantByName("LS")
	if !ok {
		t.Fatal("LS variant missing")
	}
	if ls.Total <= 1 {
		t.Errorf("LS SAF = %v, want > 1 for scan-after-random-write", ls.Total)
	}
	for _, name := range []string{"LS+defrag", "LS+prefetch", "LS+cache"} {
		v, ok := cmp.VariantByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if v.Total >= ls.Total {
			t.Errorf("%s SAF %v not better than LS %v", name, v.Total, ls.Total)
		}
	}
	if _, ok := cmp.VariantByName("nope"); ok {
		t.Error("VariantByName(nope) should fail")
	}
}

func TestCompareLogFriendly(t *testing.T) {
	// Temporal-locality workload: random writes then reads in the SAME
	// temporal order → LS turns both into sequential access, SAF < 1.
	var recs []trace.Record
	lbas := []int64{9000, 100, 5000, 42, 7000, 1000, 3000, 600}
	for _, l := range lbas {
		recs = append(recs, wr(l, 16))
	}
	for rep := 0; rep < 3; rep++ {
		for _, l := range lbas {
			recs = append(recs, rd(l, 16))
		}
	}
	cmp, err := CompareContext(context.Background(), recs, Config{LogStructured: true})
	if err != nil {
		t.Fatal(err)
	}
	if saf := cmp.Variants[0].Total; saf >= 1 {
		t.Errorf("log-friendly workload SAF = %v, want < 1", saf)
	}
}

func TestDefragGates(t *testing.T) {
	d := NewDefragmenter(DefragConfig{MinFragments: 3, MinAccesses: 2})
	e := geom.Ext(0, 10)
	if d.ShouldDefrag(e, 2) {
		t.Error("below MinFragments must not defrag")
	}
	if d.ShouldDefrag(e, 5) {
		t.Error("first access must not defrag with MinAccesses=2")
	}
	if !d.ShouldDefrag(e, 5) {
		t.Error("second access should defrag")
	}
	// Counter reset after write-back.
	if d.ShouldDefrag(e, 5) {
		t.Error("count must reset after defrag")
	}
	// Clamping.
	d2 := NewDefragmenter(DefragConfig{})
	if !d2.ShouldDefrag(e, 2) {
		t.Error("clamped defaults should defrag a 2-fragment read immediately")
	}
}

func TestPrefetcherBufferEviction(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{LookBehindSectors: 0, LookAheadSectors: 0, BufferBytes: 2 * 512})
	p.Fill(geom.Ext(0, 1))
	p.Fill(geom.Ext(100, 1))
	p.Fill(geom.Ext(200, 1)) // evicts [0,1)
	if p.Covers(geom.Ext(0, 1)) {
		t.Error("oldest window should be evicted")
	}
	if !p.Covers(geom.Ext(100, 1)) || !p.Covers(geom.Ext(200, 1)) {
		t.Error("newer windows must remain")
	}
	if p.bytes != 2*512 {
		t.Errorf("buffered bytes = %d", p.bytes)
	}
	if p.Hits() != 2 {
		t.Errorf("hits=%d, want the 2 covered checks", p.Hits())
	}
	p.Fill(geom.Extent{}) // no-op
}

// TestPrefetcherCoverageProperty checks incremental eviction: after
// every Fill, the coverage set equals the union of the live windows
// built from scratch. Windows overlap densely and the buffer holds only
// a few of them, so nearly every Fill evicts, and an evicted window's
// sectors are often still buffered by a newer one.
func TestPrefetcherCoverageProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		behind, ahead := rng.Int63n(16), 1+rng.Int63n(16)
		p := NewPrefetcher(PrefetchConfig{LookBehindSectors: behind, LookAheadSectors: ahead, BufferBytes: (4 + rng.Int63n(60)) * 512})
		for i := 0; i < 3000; i++ {
			p.Fill(geom.Ext(rng.Int63n(400), rng.Int63n(12)))
			all := geom.Span(0, math.MaxInt64)
			want := geom.NewSet(p.windows[p.head:]...).Covered(all)
			if got := p.covered.Covered(all); !slices.Equal(got, want) {
				t.Fatalf("seed %d, fill %d: coverage %v, union of live windows %v", seed, i, got, want)
			}
		}
	}
}

func TestPrefetcherClampsAtZero(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{LookBehindSectors: 100, LookAheadSectors: 0, BufferBytes: 1 << 20})
	p.Fill(geom.Ext(5, 1)) // window would start at -95; clamped to 0
	if !p.Covers(geom.Ext(0, 6)) {
		t.Error("window should cover [0,6)")
	}
}

// TestPrefetcherOversizeWindow: a window of 2^60 sectors, whose byte
// count overflows, is accounted past the buffer and evicted by the next
// Fill, and a window reaching past the largest sector ends there.
func TestPrefetcherOversizeWindow(t *testing.T) {
	cfg := DefaultPrefetchConfig()
	p := NewPrefetcher(cfg)
	p.Fill(geom.Ext(0, 1<<60))
	if got := p.bytes; got <= cfg.BufferBytes {
		t.Errorf("after a 2^60-sector window: buffered bytes = %d, want past %d", got, cfg.BufferBytes)
	}
	p.Fill(geom.Ext(0, 8))
	if got := p.bytes; got > cfg.BufferBytes {
		t.Errorf("buffered bytes = %d, want <= %d", got, cfg.BufferBytes)
	}
	if p.Covers(geom.Ext(1<<59, 8)) {
		t.Error("the evicted 2^60-sector window still covers sector 2^59")
	}
	p.Fill(geom.Ext(math.MaxInt64-4, 4))
	if !p.Covers(geom.Ext(math.MaxInt64-4, 4)) {
		t.Error("a window at the top of the address space must buffer its fragment")
	}
}

func TestSelectiveCacheExactKeySemantics(t *testing.T) {
	s := NewSelectiveCache(CacheConfig{CapacityBytes: 1 << 20})
	s.Insert(geom.Ext(10, 10))
	if !s.Has(geom.Ext(10, 10)) {
		t.Error("exact key should hit")
	}
	if s.Has(geom.Ext(10, 5)) {
		t.Error("sub-range is a (false) miss by design")
	}
	if s.c.Len() != 1 || s.cachedBytes() != 10*512 {
		t.Errorf("entries=%d used=%d", s.c.Len(), s.cachedBytes())
	}
	// Invalidation of a non-overlapping write is a fast no-op.
	if got := s.Invalidate(geom.Ext(1000, 5)); got != 0 {
		t.Errorf("non-overlapping invalidate dropped %d", got)
	}
	if got := s.Invalidate(geom.Ext(15, 1)); got != 1 {
		t.Errorf("overlapping invalidate dropped %d, want 1", got)
	}
	if s.Has(geom.Ext(10, 10)) {
		t.Error("invalidated entry should miss")
	}
	s.Insert(geom.Extent{}) // no-op
	if s.c.Len() != 0 {
		t.Error("empty insert should be ignored")
	}
}

func TestSelectiveCacheCapacityEviction(t *testing.T) {
	s := NewSelectiveCache(CacheConfig{CapacityBytes: 3 * 512})
	s.Insert(geom.Ext(0, 1))
	s.Insert(geom.Ext(10, 1))
	s.Insert(geom.Ext(20, 1))
	s.Insert(geom.Ext(30, 1)) // evicts [0,1)
	if s.Has(geom.Ext(0, 1)) {
		t.Error("coldest entry should be evicted")
	}
	if !s.Has(geom.Ext(30, 1)) {
		t.Error("newest entry must be present")
	}
}
