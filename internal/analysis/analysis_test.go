package analysis

import (
	"context"
	"math"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

func wrRec(lba, n int64) trace.Record {
	return trace.Record{Kind: disk.Write, Extent: geom.Ext(lba, n)}
}

func rdRec(lba, n int64) trace.Record {
	return trace.Record{Kind: disk.Read, Extent: geom.Ext(lba, n)}
}

func TestMisorderedWritesDescendingBurst(t *testing.T) {
	// 4 chunks of 8 sectors written descending: chunks at 24,16,8,0.
	// Every chunk except the first written (at 24) sequentially precedes
	// a later write... precisely: a write is mis-ordered when a LATER
	// write ends at its start. 24←16✓, 16←8✓, 8←0✓, 0 has no later
	// predecessor → 3 of 4 mis-ordered.
	recs := []trace.Record{wrRec(24, 8), wrRec(16, 8), wrRec(8, 8), wrRec(0, 8)}
	res := MisorderedWrites(recs, 0)
	if res.Writes != 4 || res.Misordered != 3 {
		t.Fatalf("result = %+v", res)
	}
	if f := res.Fraction(); f != 0.75 {
		t.Errorf("Fraction = %v", f)
	}
}

func TestMisorderedWritesAscendingIsClean(t *testing.T) {
	recs := []trace.Record{wrRec(0, 8), wrRec(8, 8), wrRec(16, 8), rdRec(100, 4)}
	res := MisorderedWrites(recs, 0)
	if res.Misordered != 0 || res.Writes != 3 {
		t.Fatalf("result = %+v", res)
	}
	if (MisorderResult{}).Fraction() != 0 {
		t.Error("empty fraction should be 0")
	}
}

func TestMisorderedWritesWindowLimit(t *testing.T) {
	// The successor write arrives outside the 256 KB window: not counted.
	filler := make([]trace.Record, 0, 70)
	filler = append(filler, wrRec(1000, 8)) // pivot: would match a later write ending at 1000
	for i := 0; i < 64; i++ {
		filler = append(filler, wrRec(int64(100000+i*16), 8)) // 4 KB each → 256 KB total
	}
	filler = append(filler, wrRec(992, 8)) // ends at 1000, but window exceeded
	res := MisorderedWrites(filler, 0)
	if res.Misordered != 0 {
		t.Fatalf("window not respected: %+v", res)
	}
	// Shrink the filler: now it fits inside the window.
	recs := []trace.Record{wrRec(1000, 8), wrRec(5000, 8), wrRec(992, 8)}
	res = MisorderedWrites(recs, 0)
	if res.Misordered != 1 {
		t.Fatalf("in-window misorder missed: %+v", res)
	}
}

func TestFragmentedReadCDF(t *testing.T) {
	// Reads with fragment counts: unfragmented ones are ignored.
	counts := []int{1, 1, 10, 2, 2, 1, 6}
	sk := FragmentedReadCDF(counts)
	if sk.FragmentedReads != 4 || sk.TotalFragments != 20 {
		t.Fatalf("skew = %+v", sk)
	}
	// Top 25% of fragmented reads (the 10-fragment one) hold 50%.
	if got := sk.ShareAtOps(0.25); got != 0.5 {
		t.Errorf("ShareAtOps(0.25) = %v", got)
	}
	if got := sk.ShareAtOps(1.0); got != 1.0 {
		t.Errorf("ShareAtOps(1) = %v", got)
	}
	empty := FragmentedReadCDF([]int{1, 1})
	if empty.ShareAtOps(0.5) != 0 || empty.Curve != nil {
		t.Error("no fragmented reads should give empty skew")
	}
	// Curve must be monotone in both coordinates.
	for i := 1; i < len(sk.Curve); i++ {
		if sk.Curve[i].FracOps < sk.Curve[i-1].FracOps || sk.Curve[i].FracValue < sk.Curve[i-1].FracValue {
			t.Fatalf("curve not monotone: %+v", sk.Curve)
		}
	}
}

func TestPopularity(t *testing.T) {
	p := NewPopularity()
	frag := func(pba, n int64) stl.Fragment {
		return stl.Fragment{Lba: geom.Ext(0, n), Pba: pba}
	}
	hot := []stl.Fragment{frag(100, 8), frag(200, 8)}
	cold := []stl.Fragment{frag(300, 16), frag(400, 16)}
	for i := 0; i < 5; i++ {
		p.ObserveRead(hot)
	}
	p.ObserveRead(cold)
	p.ObserveRead([]stl.Fragment{frag(999, 4)}) // unfragmented: ignored
	entries := p.Sorted()
	if len(entries) != 4 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].AccessCount != 5 || entries[1].AccessCount != 5 {
		t.Errorf("hot fragments should lead: %+v", entries[:2])
	}
	if entries[0].CumulativeBytes != 8*512 || entries[3].CumulativeBytes != (8+8+16+16)*512 {
		t.Errorf("cumulative bytes wrong: %+v", entries)
	}
	// 10 of 12 accesses (≈83%) come from the two hot fragments → 8 KB.
	if got := BytesForAccessShare(entries, 0.8); got != 2*8*512 {
		t.Errorf("BytesForAccessShare = %d", got)
	}
	if BytesForAccessShare(nil, 0.5) != 0 {
		t.Error("empty entries should need 0 bytes")
	}
	if got := BytesForAccessShare(entries, 1.0); got != entries[3].CumulativeBytes {
		t.Errorf("full share should need all bytes, got %d", got)
	}
}

func TestSequentialityProfile(t *testing.T) {
	recs := []trace.Record{
		wrRec(0, 8), wrRec(8, 8), // ascending pair
		wrRec(40, 8), wrRec(32, 8), wrRec(24, 8), // descending run of 2 steps
		rdRec(0, 4), // reads ignored
		wrRec(1000, 8),
	}
	prof := SequentialityProfile(recs)
	if prof.Writes != 6 {
		t.Errorf("writes = %d", prof.Writes)
	}
	if prof.AscendingAdjacent != 1 || prof.DescendingAdjacent != 2 {
		t.Errorf("profile = %+v", prof)
	}
	if prof.LongestDescending != 2 {
		t.Errorf("longest descending = %d", prof.LongestDescending)
	}
}

func TestInstrumentedArtifacts(t *testing.T) {
	p, err := workload.ByName("hm_1")
	if err != nil {
		t.Fatal(err)
	}
	recs := p.Generate(0.3)
	art, err := InstrumentedContext(context.Background(), recs, core.Config{LogStructured: true}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if art.Stats.Reads == 0 || art.Stats.Writes == 0 {
		t.Fatalf("stats empty: %+v", art.Stats)
	}
	if art.DistanceCDF.At(math.Inf(1)) == 0 {
		t.Error("no distances observed")
	}
	if len(art.FragCounts) != int(art.Stats.Reads) {
		t.Errorf("frag counts %d != reads %d", len(art.FragCounts), art.Stats.Reads)
	}
	if len(art.Popularity.Sorted()) == 0 {
		t.Error("popularity empty for a fragmenting workload")
	}
	// NoLS artifacts work too and never see fragments.
	artN, err := InstrumentedContext(context.Background(), recs, core.Config{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range artN.FragCounts {
		if c > 1 {
			t.Fatal("NoLS read with >1 fragment")
		}
	}
	// Frontier auto-set: explicit config with frontier also works.
	if _, err := InstrumentedContext(context.Background(), recs, core.Config{LogStructured: true, FrontierStart: trace.MaxLBA(recs)}, 100); err != nil {
		t.Fatal(err)
	}
	// Invalid config propagates.
	d := core.DefaultDefragConfig()
	if _, err := InstrumentedContext(context.Background(), recs, core.Config{Defrag: &d}, 100); err == nil {
		t.Error("invalid config must error")
	}
}
