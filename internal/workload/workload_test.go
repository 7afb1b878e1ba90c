package workload

import (
	"math"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Int63n(100); v < 0 || v >= 100 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) should panic")
		}
	}()
	r.Int63n(0)
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGBoolBias(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %v", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 should dominate rank 50 by roughly 51x under s=1; accept a
	// generous band.
	if counts[0] < counts[50]*10 {
		t.Errorf("skew too weak: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// The head must not be everything: tail ranks still get samples.
	if counts[99] == 0 {
		t.Error("tail rank never sampled")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(n<=0) should panic")
		}
	}()
	NewZipf(r, 0, 1)
}

func TestBuilderPrimitives(t *testing.T) {
	b := NewBuilder(1000)
	b.Read(10, 5)
	b.WriteExtent(geom.Ext(20, 5))
	b.Read(0, 0) // empty: dropped
	b.WriteExtent(geom.Ext(100, 10))
	b.ReadExtent(geom.Ext(200, 20))
	recs := b.Records()
	if len(recs) != 4 || b.Len() != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Kind != disk.Read || recs[1].Kind != disk.Write || recs[2].Kind != disk.Write || recs[3].Kind != disk.Read {
		t.Error("kinds wrong")
	}
	if recs[2].Extent != geom.Ext(100, 10) || recs[3].Extent != geom.Ext(200, 20) {
		t.Errorf("extents wrong: %v %v", recs[2].Extent, recs[3].Extent)
	}
	// Clock advances by the inter-op gap.
	for i := 1; i < len(recs); i++ {
		if recs[i].Time-recs[i-1].Time != 1000 {
			t.Fatalf("clock step %d -> %d, want 1000", recs[i-1].Time, recs[i].Time)
		}
	}
}

func TestMisorderedWritePatterns(t *testing.T) {
	for _, pat := range []MisorderPattern{Descending, Interleaved, Shuffled} {
		b := NewBuilder(0)
		b.MisorderedWrite(100, 8, 4, pat, NewRNG(5))
		recs := b.Records()
		if len(recs) != 8 {
			t.Fatalf("pattern %v: %d records", pat, len(recs))
		}
		// All chunks present exactly once, covering [100,132).
		seen := map[geom.Sector]bool{}
		for _, r := range recs {
			if r.Kind != disk.Write || r.Extent.Count != 4 {
				t.Fatalf("pattern %v: bad record %v", pat, r)
			}
			seen[r.Extent.Start] = true
		}
		for s := geom.Sector(100); s < 132; s += 4 {
			if !seen[s] {
				t.Fatalf("pattern %v: chunk %d missing", pat, s)
			}
		}
		// Not strictly ascending (that would defeat the purpose).
		asc := true
		for i := 1; i < len(recs); i++ {
			if recs[i].Extent.Start < recs[i-1].Extent.Start {
				asc = false
			}
		}
		if asc {
			t.Errorf("pattern %v emitted ascending writes", pat)
		}
	}
	// Descending is exactly reversed.
	b := NewBuilder(0)
	b.MisorderedWrite(0, 4, 2, Descending, nil)
	recs := b.Records()
	for i, want := range []geom.Sector{6, 4, 2, 0} {
		if recs[i].Extent.Start != want {
			t.Fatalf("descending order wrong: %v", recs)
		}
	}
	// Degenerate inputs are no-ops.
	b2 := NewBuilder(0)
	b2.MisorderedWrite(0, 0, 4, Descending, nil)
	b2.MisorderedWrite(0, 4, 0, Descending, nil)
	if b2.Len() != 0 {
		t.Error("degenerate bursts should emit nothing")
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 21 {
		t.Fatalf("catalog has %d workloads, want 21", len(cat))
	}
	msr, cp := 0, 0
	seen := map[string]bool{}
	for _, p := range cat {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate workload %s", p.Name)
		}
		seen[p.Name] = true
		if p.Source == MSR {
			msr++
		} else {
			cp++
		}
		if p.OS == "" {
			t.Errorf("%s missing OS metadata", p.Name)
		}
	}
	if msr != 9 || cp != 12 {
		t.Errorf("msr=%d cloudphysics=%d, want 9/12", msr, cp)
	}
	if len(Names()) != 21 {
		t.Error("Names() incomplete")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("w91")
	if err != nil || p.Name != "w91" {
		t.Fatalf("ByName(w91) = %v, %v", p.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("hm_1")
	a := p.Generate(0.2)
	b := p.Generate(0.2)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) < 1000 {
		t.Errorf("scale 0.2 of hm_1 gave only %d records", len(a))
	}
}

func TestGenerateRespectsProfileShape(t *testing.T) {
	for _, name := range []string{"usr_0", "w36", "w91", "w20"} {
		p, _ := ByName(name)
		recs := p.Generate(0.1)
		c := trace.Characterize(recs)
		if c.Ops == 0 {
			t.Fatalf("%s: empty", name)
		}
		// Write intensity within ±0.15 of the profile's target (bursts
		// and phases add variance).
		if got := c.WriteIntensity(); math.Abs(got-p.WriteFrac) > 0.15 {
			t.Errorf("%s: write intensity %v, profile says %v", name, got, p.WriteFrac)
		}
		// All extents inside the region (misorder bursts may poke just
		// past scan spans but never past the region).
		for _, r := range recs {
			if r.Extent.Start < 0 || r.Extent.End() > p.RegionSectors+(int64(p.MisorderChunks)*p.MisorderChunk) {
				t.Fatalf("%s: extent %v escapes region %d", name, r.Extent, p.RegionSectors)
			}
		}
	}
}

func TestGenerateScaleFloor(t *testing.T) {
	p, _ := ByName("hm_1")
	recs := p.Generate(-1) // invalid scale falls back to 1.0
	if len(recs) < p.BaseOps {
		t.Errorf("scale fallback generated %d < BaseOps", len(recs))
	}
	tiny := Profile{Name: "t", BaseOps: 1, RegionSectors: 10000, WriteFrac: 0.5}
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tiny.Generate(1)); got < 100 {
		t.Errorf("op floor not applied: %d", got)
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x"},
		{Name: "x", BaseOps: 10},
		{Name: "x", BaseOps: 10, RegionSectors: 100, WriteFrac: 1.5},
		{Name: "x", BaseOps: 10, RegionSectors: 100, ScanFrac: -0.1},
		{Name: "x", BaseOps: 10, RegionSectors: 100, HotReadFrac: 0.6, ScanFrac: 0.6},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestSourceString(t *testing.T) {
	if MSR.String() != "MSR" || CloudPhysics.String() != "CloudPhysics" {
		t.Error("Source.String wrong")
	}
}
