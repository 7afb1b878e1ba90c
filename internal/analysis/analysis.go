// Package analysis implements the measurements behind the paper's
// characterization figures: mis-ordered write counting (Figure 8), write
// sequentiality profiles (Figure 7), dynamic-fragmentation skew
// (Figure 5), fragment popularity and cumulative cache footprint
// (Figure 10), access-distance CDFs (Figure 4) and long-seek differential
// time series (Figure 3).
package analysis

import (
	"context"
	"sort"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
)

// MisorderWindowBytes is the paper's "near future" horizon: a write is
// mis-ordered if a write it sequentially follows arrives within the next
// 256 KB of written volume (§IV-B).
const MisorderWindowBytes = 256 * 1024

// MisorderResult reports Figure 8's metric for one workload.
type MisorderResult struct {
	Writes     int64
	Misordered int64
}

// Fraction returns the mis-ordered share of writes.
func (m MisorderResult) Fraction() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.Misordered) / float64(m.Writes)
}

// MisorderedWrites counts writes whose LBA range sequentially follows a
// write issued *later* but within windowBytes of written volume — the
// writes that cost a missed rotation under log structuring. It is a pure
// trace analysis, independent of any translation layer.
func MisorderedWrites(recs []trace.Record, windowBytes int64) MisorderResult {
	if windowBytes <= 0 {
		windowBytes = MisorderWindowBytes
	}
	var writes []trace.Record
	for _, r := range recs {
		if r.Kind == disk.Write {
			writes = append(writes, r)
		}
	}
	res := MisorderResult{Writes: int64(len(writes))}
	// Sliding window over the write stream: for write i, the window holds
	// writes (i, j] whose cumulative volume is within windowBytes. endCount
	// maps an end sector to how many windowed writes end there; write i is
	// mis-ordered iff some windowed write ends exactly at i's start.
	endCount := make(map[geom.Sector]int)
	var vol int64
	j := 0 // window upper bound (exclusive index of next write to add)
	for i := range writes {
		if j <= i {
			j = i + 1
			// Volume and endCount must only describe writes after i.
			vol = 0
		}
		for j < len(writes) && vol+writes[j].Extent.Bytes() <= windowBytes {
			endCount[writes[j].Extent.End()]++
			vol += writes[j].Extent.Bytes()
			j++
		}
		if endCount[writes[i].Extent.Start] > 0 {
			res.Misordered++
		}
		// Slide: drop write i+1 from the window accounting (it becomes
		// the next pivot and must not match itself).
		if j > i+1 {
			w := writes[i+1]
			if c := endCount[w.Extent.End()]; c <= 1 {
				delete(endCount, w.Extent.End())
			} else {
				endCount[w.Extent.End()] = c - 1
			}
			vol -= w.Extent.Bytes()
		}
	}
	return res
}

// RunPoint is one (fraction-of-X, fraction-of-Y) point of a skew curve.
type RunPoint struct {
	FracOps   float64 // cumulative fraction of operations (sorted desc)
	FracValue float64 // cumulative fraction of the measured quantity
}

// FragmentSkew summarizes Figure 5 for one run: among fragmented reads
// (2+ fragments), how concentrated the fragments are.
type FragmentSkew struct {
	FragmentedReads int
	TotalFragments  int64
	Curve           []RunPoint
}

// FragmentedReadCDF computes the Figure 5 skew curve from per-read
// fragment counts: reads are sorted by fragment count descending and the
// cumulative fragment share is reported at each read.
func FragmentedReadCDF(fragCounts []int) FragmentSkew {
	var frag []int
	var total int64
	for _, c := range fragCounts {
		if c >= 2 {
			frag = append(frag, c)
			total += int64(c)
		}
	}
	sk := FragmentSkew{FragmentedReads: len(frag), TotalFragments: total}
	if len(frag) == 0 {
		return sk
	}
	sort.Sort(sort.Reverse(sort.IntSlice(frag)))
	var cum int64
	for i, c := range frag {
		cum += int64(c)
		sk.Curve = append(sk.Curve, RunPoint{
			FracOps:   float64(i+1) / float64(len(frag)),
			FracValue: float64(cum) / float64(total),
		})
	}
	return sk
}

// ShareAtOps returns the cumulative fragment share held by the top frac
// of fragmented reads (e.g. ShareAtOps(0.2) ≈ 0.5 means 20% of the reads
// hold half the fragments — the paper's headline skew).
func (s FragmentSkew) ShareAtOps(frac float64) float64 {
	for _, p := range s.Curve {
		if p.FracOps >= frac {
			return p.FracValue
		}
	}
	if len(s.Curve) > 0 {
		return 1
	}
	return 0
}

// FragStat is one fragment's popularity entry (Figure 10).
type FragStat struct {
	Phys        geom.Extent
	AccessCount int64
}

// PopularityEntry is one row of the sorted Figure 10 curve.
type PopularityEntry struct {
	Rank        int
	AccessCount int64
	Bytes       int64
	// CumulativeBytes is the cache size needed to hold this fragment and
	// every more-popular one (the red dashed curve).
	CumulativeBytes int64
}

// Popularity aggregates fragment access counts during a run. Fragments
// are keyed by physical extent: a fragment re-read after an intervening
// overwrite is a different physical extent, exactly as a cache would see.
type Popularity struct {
	counts map[physKey]*FragStat
}

type physKey struct {
	pba   geom.Sector
	count int64
}

// NewPopularity returns an empty popularity accumulator.
func NewPopularity() *Popularity {
	return &Popularity{counts: make(map[physKey]*FragStat)}
}

// ObserveRead ingests one read's resolution; only fragmented reads
// contribute (they are what selective caching targets).
func (p *Popularity) ObserveRead(frags []stl.Fragment) {
	if len(frags) < 2 {
		return
	}
	for _, f := range frags {
		k := physKey{pba: f.Pba, count: f.Lba.Count}
		st, ok := p.counts[k]
		if !ok {
			st = &FragStat{Phys: f.PhysExtent()}
			p.counts[k] = st
		}
		st.AccessCount++
	}
}

// Sorted returns the popularity table sorted by access count descending
// (ties by physical address for determinism), with cumulative bytes.
func (p *Popularity) Sorted() []PopularityEntry {
	stats := make([]*FragStat, 0, len(p.counts))
	for _, st := range p.counts {
		stats = append(stats, st)
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].AccessCount != stats[j].AccessCount {
			return stats[i].AccessCount > stats[j].AccessCount
		}
		return stats[i].Phys.Start < stats[j].Phys.Start
	})
	out := make([]PopularityEntry, len(stats))
	var cum int64
	for i, st := range stats {
		cum += st.Phys.Bytes()
		out[i] = PopularityEntry{
			Rank:            i,
			AccessCount:     st.AccessCount,
			Bytes:           st.Phys.Bytes(),
			CumulativeBytes: cum,
		}
	}
	return out
}

// BytesForAccessShare returns the cumulative cache size (bytes) needed to
// hold the most popular fragments accounting for the given share of all
// fragment accesses — the paper's "a few 10s of MB" observation.
func BytesForAccessShare(entries []PopularityEntry, share float64) int64 {
	var total int64
	for _, e := range entries {
		total += e.AccessCount
	}
	if total == 0 {
		return 0
	}
	target := int64(share * float64(total))
	var acc int64
	for _, e := range entries {
		acc += e.AccessCount
		if acc >= target {
			return e.CumulativeBytes
		}
	}
	if n := len(entries); n > 0 {
		return entries[n-1].CumulativeBytes
	}
	return 0
}

// WriteRunProfile summarizes the write stream's local ordering, the
// numeric counterpart of Figure 7's scatter plots.
type WriteRunProfile struct {
	Writes             int64
	AscendingAdjacent  int64 // write starts exactly at previous write's end
	DescendingAdjacent int64 // write ends exactly at previous write's start
	LongestDescending  int
}

// SequentialityProfile computes adjacency statistics over the write
// stream: how often consecutive writes are forward-sequential versus
// reverse-sequential (descending runs like hm_1's in Figure 7a).
func SequentialityProfile(recs []trace.Record) WriteRunProfile {
	var prof WriteRunProfile
	var prev *trace.Record
	runLen := 0
	for i := range recs {
		r := recs[i]
		if r.Kind != disk.Write {
			continue
		}
		prof.Writes++
		if prev != nil {
			switch {
			case r.Extent.Start == prev.Extent.End():
				prof.AscendingAdjacent++
				runLen = 0
			case r.Extent.End() == prev.Extent.Start:
				prof.DescendingAdjacent++
				runLen++
				if runLen > prof.LongestDescending {
					prof.LongestDescending = runLen
				}
			default:
				runLen = 0
			}
		}
		prev = &recs[i]
	}
	return prof
}

// Artifacts bundles the instrumented outputs of one simulation run that
// the figures consume.
type Artifacts struct {
	Stats core.Stats
	// DistanceCDF holds signed access distances in sectors for every
	// access (Figure 4 restricts its plot window; the CDF holds all).
	DistanceCDF *metrics.CDF
	// LongSeeks counts seeks with |distance| > 500 KB per window of
	// trace operations (Figure 3).
	LongSeeks *metrics.Series
	// FragCounts is the per-read dynamic fragmentation (Figure 5 input).
	FragCounts []int
	// Popularity is the fragment access accumulator (Figure 10 input).
	Popularity *Popularity
}

// InstrumentedContext runs recs through the configuration with all
// figure instrumentation attached. windowOps sets the Figure 3 window
// width. A cancelled or expired context abandons the run and returns
// ctx.Err().
func InstrumentedContext(ctx context.Context, recs []trace.Record, cfg core.Config, windowOps int64) (*Artifacts, error) {
	if cfg.LogStructured && cfg.FrontierStart == 0 {
		cfg.FrontierStart = trace.MaxLBA(recs)
	}
	a := &Artifacts{
		DistanceCDF: metrics.NewCDF(),
		LongSeeks:   metrics.NewSeries(windowOps),
		Popularity:  NewPopularity(),
	}
	sim, err := core.NewSimulator(cfg, &figureProbe{a: a})
	if err != nil {
		return nil, err
	}
	st, err := sim.RunContext(ctx, trace.NewSliceReader(recs))
	if err != nil {
		return nil, err
	}
	a.Stats = st
	return a, nil
}

// figureProbe fills an Artifacts during one run: seek distances from the
// device's accesses, windowed by the operation in progress, and fragment
// counts and popularity from each read's resolution.
type figureProbe struct {
	a *Artifacts
	// ops counts operations begun; the one in progress has index ops-1.
	// An empty record begins none, so on a trace holding one the windows
	// count operations, not records.
	ops int64
}

func (p *figureProbe) OnOp(ev core.OpEvent) {
	p.ops++
	if ev.Kind == disk.Read {
		p.a.FragCounts = append(p.a.FragCounts, len(ev.Fragments))
		p.a.Popularity.ObserveRead(ev.Fragments)
	}
}

func (p *figureProbe) ObserveAccess(acc disk.Access) {
	if acc.Seeked {
		p.a.DistanceCDF.Observe(float64(acc.Distance))
		if abs64(acc.Distance) > disk.LongSeekSectors {
			p.a.LongSeeks.Add(p.ops-1, 1)
		}
	}
}

func (p *figureProbe) OnCheckpoint(time.Duration) {}
func (p *figureProbe) OnFinish()                  {}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
