package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples: the smallest sample with at least p percent of the
// samples at or below it. The samples are exact caller-side timings,
// never histogram buckets. It sorts a copy.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), p)]
}

func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// rung is one depth of the layer ladder: the same records replayed
// through the stack up to and including one layer.
type rung struct {
	Name    string  // the layer this rung adds
	NsPerOp float64 // cumulative cost of the stack up to this layer
}

// selfTimes turns a ladder of cumulative rungs, shallowest first, into
// per-layer self times: each rung minus the rung below it, the first
// rung minus nothing. The self times sum to the last rung exactly. A
// self time may be negative — a mechanism that defragments the map can
// make the whole stack cheaper than the stack without it — and is
// reported as measured.
func selfTimes(ladder []rung) map[string]float64 {
	self := make(map[string]float64, len(ladder))
	below := 0.0
	for _, r := range ladder {
		self[r.Name] = r.NsPerOp - below
		below = r.NsPerOp
	}
	return self
}

// relDiff is |a-b| as a share of the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
