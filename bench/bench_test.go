package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, tc := range []struct {
		p    float64
		want int64
	}{{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if s[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	// 7 restarts: rank 6 of 7 is the second slowest.
	seven := []int64{7, 1, 6, 2, 5, 3, 4}
	if got := percentile(seven, 100*6.0/7); got != 6 {
		t.Errorf("second slowest of seven = %d, want 6", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	ladder := []rung{{"trace.next", 5}, {"extmap", 300}, {"stl", 320}, {"core.ls", 500}, {"core.defrag", 380}, {"core.cache", 35000}}
	self := selfTimes(ladder)
	want := map[string]float64{"trace.next": 5, "extmap": 295, "stl": 20, "core.ls": 180, "core.defrag": -120, "core.cache": 34620}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if sum != ladder[len(ladder)-1].NsPerOp {
		t.Errorf("self times sum to %v, want the top rung %v", sum, ladder[len(ladder)-1].NsPerOp)
	}
}

func TestSliceMedians(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Four full slices at 1000, 1000, 400 (a burst) and 1000 records per
	// 250 ms, then a 10 ms closing stub that must not count.
	marks := []mark{
		{at: 0, ops: 0, cpuNs: 0},
		{at: ms(250), ops: 1000, cpuNs: 100e6},
		{at: ms(500), ops: 2000, cpuNs: 200e6},
		{at: ms(750), ops: 2400, cpuNs: 300e6},
		{at: ms(1000), ops: 3400, cpuNs: 400e6},
		{at: ms(1010), ops: 3401, cpuNs: 401e6},
	}
	rate, cpu, n := sliceMedians(marks, 0)
	if n != 4 || rate != 4000 || cpu != 100 {
		t.Errorf("sliceMedians = %v records/s, %v us/op over %d slices; want 4000, 100, 4", rate, cpu, n)
	}
	// Up to record 2000 only the first two slices count.
	if _, _, n := sliceMedians(marks, 2000); n != 2 {
		t.Errorf("slices up to record 2000 = %d, want 2", n)
	}
	// A window shorter than one slice is its own single slice.
	if rate, _, n := sliceMedians(marks[:1:1], 0); n != 0 || rate != 0 {
		t.Errorf("no slices: got %v over %d", rate, n)
	}
	short := []mark{{}, {at: ms(10), ops: 50, cpuNs: 5e6}}
	if rate, _, n := sliceMedians(short, 0); n != 1 || rate != 5000 {
		t.Errorf("short window = %v over %d slices, want 5000 over 1", rate, n)
	}
}

func TestSliceTails(t *testing.T) {
	lat := make([]int64, 4000)
	for i := range lat {
		lat[i] = int64(i%1000) + 1 // each run of 1000 holds 1..1000
	}
	tails := sliceTails(lat)
	if len(tails) != 4 {
		t.Fatalf("parts = %d, want 4 (at least %d samples each)", len(tails), tailMinSamples)
	}
	for _, v := range tails {
		if v != 990 {
			t.Errorf("part p99 = %v, want 990", v)
		}
	}
	if got := sliceTails([]int64{5, 1, 9}); len(got) != 1 || got[0] != 9 {
		t.Errorf("few samples: %v, want one part with 9", got)
	}
}

func TestSeedDeterminesTrace(t *testing.T) {
	gen := func(seed uint64) []byte {
		b := &bench{seed: seed, factor: 0.02}
		pre, err := b.generate("mech-pipe")
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(pre.Records())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, again, other := gen(7), gen(7), gen(8)
	if string(a) != string(again) {
		t.Error("the same seed generated different records")
	}
	if string(a) == string(other) {
		t.Error("different seeds generated the same records")
	}
}

// TestSmokeAllWorkloads runs every workload end to end at about 1/50 of
// its benchmark size, untraced and traced: it spawns the real smrd,
// kills and restarts it, runs every correctness check, and pins the
// result line to exactly the metrics BENCHMARK.json lists.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the driver's is %q", i, w.Name, workloadNames[i])
		}
	}
	workRoot := filepath.Join(root, buildDirName, "work")
	if err := os.MkdirAll(workRoot, 0o777); err != nil {
		t.Fatal(err)
	}
	workDir, err := os.MkdirTemp(workRoot, "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killAllChildren()
		os.RemoveAll(workDir)
	})
	for _, traced := range []bool{false, true} {
		b := &bench{root: root, workDir: workDir, seed: 3, factor: 0.02, trace: traced, cheapSetups: 1}
		for _, name := range workloadNames {
			o, err := b.run(name)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if o.Attempted < 1 || o.Failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", name, o.Attempted, o.Failed)
			}
			r, err := toResult(o, spec.metrics(traced), traced)
			if err != nil {
				t.Errorf("%s (traced=%v): %v", name, traced, err)
				continue
			}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s: result line keys %v, want exactly correct, attempted, failed, metrics", name, keys)
			}
			for _, m := range spec.metrics(traced) {
				v, ok := r.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %v (present %v)", name, m.Name, v.Value, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, v.Value)
				}
			}
			if traced && len(o.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}
