// Package metrics provides the statistical plumbing the experiments use:
// empirical CDFs, log-bucketed histograms, fixed-width windowed time
// series, and the paper's headline metric — the seek amplification
// factor (SAF).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// SAF computes a seek amplification factor: seeks under a log-structured
// variant divided by seeks under the untranslated baseline. A baseline of
// zero with a non-zero numerator yields +Inf; 0/0 is defined as 1 (no
// seeks anywhere — nothing was amplified).
func SAF(variantSeeks, baselineSeeks int64) float64 {
	if baselineSeeks == 0 {
		if variantSeeks == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(variantSeeks) / float64(baselineSeeks)
}

// Durability tallies the write-ahead-journal and recovery behaviour of
// one simulation run: how much was logged and checkpointed, whether an
// (injected) crash cut the run short, and — after stl.Recover — what
// replay found on disk.
type Durability struct {
	// JournalAppends is the number of records acknowledged by the log.
	JournalAppends int64
	// AppendFailures counts appends the log rejected; the first one
	// ends the run.
	AppendFailures int64
	// Checkpoints is the number of checkpoints written during the run.
	Checkpoints int64
	// CheckpointAge is the journal's record count past the last
	// checkpoint when the run ended — the replay a crash would cost.
	CheckpointAge int64
	// Crashed reports that an injected crash point stopped the run.
	Crashed bool

	// Recovery-side counters, filled in after stl.Recover.
	Recovered       bool  // a recovery was performed
	RecordsReplayed int64 // complete journal records applied
	ReplayedSectors int64 // sectors those records appended
	TornTail        bool  // the journal ended in a torn/corrupt record
	FromCheckpoint  bool  // a checkpoint seeded the recovered state
}

// Cleaning tallies the finite-disk banded device's persistent-cache and
// band-cleaning behaviour: how much host traffic the cache absorbed, how
// much extra mechanical work cleaning cost, and how often cleaning
// stalled the host.
type Cleaning struct {
	// CachedWrites counts host write pieces redirected into the
	// persistent cache instead of their home band.
	CachedWrites int64
	// CachedSectors counts sectors those redirected pieces carried.
	CachedSectors int64
	// CacheReads counts host read pieces served from the cache region.
	CacheReads int64
	// CleanRuns counts cleaning passes (one pass may clean many bands).
	CleanRuns int64
	// BandsCleaned counts bands read-modify-written back in place.
	BandsCleaned int64
	// CleanReadSectors counts sectors read during cleaning (live band
	// data plus cached pieces merged back).
	CleanReadSectors int64
	// CleanWriteSectors counts sectors written back during cleaning.
	CleanWriteSectors int64
	// Stalls counts cleaning passes forced synchronously under a host
	// op because the cache hit its high watermark — the host waited.
	Stalls int64
	// StallSectors counts the sectors moved by those stalled passes —
	// a proxy for how long the host waited.
	StallSectors int64
	// DirtyBands is the number of bands still holding cached data when
	// the run ended (a gauge, not a total; Add keeps the larger).
	DirtyBands int64
	// HostWriteSectors counts sectors the host asked to write — the
	// denominator of WriteAmp.
	HostWriteSectors int64
	// BandCrossings counts band boundaries host accesses swept across —
	// the head movement the banded geometry makes visible.
	BandCrossings int64
}

// Any reports whether any banded-device activity was recorded.
func (c Cleaning) Any() bool { return c != (Cleaning{}) }

// WriteAmp is the device-level write amplification: all sectors the
// medium wrote (host + cleaning write-back) over the sectors the host
// asked to write. A run with no host writes reports 1.
func (c Cleaning) WriteAmp() float64 {
	if c.HostWriteSectors == 0 {
		return 1
	}
	return float64(c.HostWriteSectors+c.CleanWriteSectors) / float64(c.HostWriteSectors)
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns an empty CDF.
func NewCDF() *CDF { return &CDF{} }

// Observe adds one sample.
func (c *CDF) Observe(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns P(X <= v), or 0 when the CDF is empty.
func (c *CDF) At(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Point is one (X, P) sample of a rendered CDF curve.
type Point struct {
	X float64
	P float64
}

// Histogram is a signed, symmetric log2-bucketed histogram for seek
// distances: bucket 0 holds |v| in [0,1), bucket k holds |v| in
// [2^(k-1), 2^k), with separate negative-side buckets.
type Histogram struct {
	pos   []int64
	neg   []int64
	zero  int64
	total int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func bucketOf(v int64) int {
	// v > 0; bucket = floor(log2(v)) + 1, so 1 -> bucket 1.
	b := 0
	for v > 0 {
		v >>= 1
		b++
	}
	return b
}

// Observe adds one signed sample.
func (h *Histogram) Observe(v int64) {
	h.total++
	switch {
	case v == 0:
		h.zero++
	case v > 0:
		b := bucketOf(v)
		for len(h.pos) <= b {
			h.pos = append(h.pos, 0)
		}
		h.pos[b]++
	default:
		b := bucketOf(-v)
		for len(h.neg) <= b {
			h.neg = append(h.neg, 0)
		}
		h.neg[b]++
	}
}

// Total returns the number of samples.
func (h *Histogram) Total() int64 { return h.total }

// Bucket describes one histogram bucket: samples with Lo <= |v| < Hi on
// the given sign.
type Bucket struct {
	Lo, Hi   int64
	Negative bool
	Count    int64
}

// Buckets returns the non-empty buckets in ascending value order
// (most-negative first).
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for b := len(h.neg) - 1; b >= 1; b-- {
		if h.neg[b] > 0 {
			out = append(out, Bucket{Lo: 1 << (b - 1), Hi: 1 << b, Negative: true, Count: h.neg[b]})
		}
	}
	if h.zero > 0 {
		out = append(out, Bucket{Lo: 0, Hi: 1, Count: h.zero})
	}
	for b := 1; b < len(h.pos); b++ {
		if h.pos[b] > 0 {
			out = append(out, Bucket{Lo: 1 << (b - 1), Hi: 1 << b, Count: h.pos[b]})
		}
	}
	return out
}

// CDFFromBuckets renders a histogram, given as its bucket list as
// returned by Buckets (ascending value order, most-negative first) and
// its total sample count, as an empirical CDF sampled at the bucket
// boundaries. At each returned X the P value is exact — equal to what a
// full-sample CDF would report at the same X — because every bucket lies
// entirely on one side of its boundary: a negative bucket (-Hi, -Lo] is
// sampled at X = -Lo, the zero bucket at X = 0, and a positive bucket
// [Lo, Hi) at X = Hi-1 (samples are integers). Between points the
// histogram has no information; consumers interpolate or step. It
// returns nil for an empty histogram.
func CDFFromBuckets(buckets []Bucket, total int64) []Point {
	if total == 0 {
		return nil
	}
	out := make([]Point, 0, len(buckets))
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		var x float64
		switch {
		case b.Negative:
			x = -float64(b.Lo)
		case b.Lo == 0:
			x = 0
		default:
			x = float64(b.Hi - 1)
		}
		out = append(out, Point{X: x, P: float64(cum) / float64(total)})
	}
	return out
}

// Quantile returns the upper edge (Hi-1 for positive buckets, matching
// CDFFromBuckets' boundary sampling) of the first bucket at which the
// cumulative count reaches q of the samples, walking buckets in
// ascending value order. q is clamped to [0, 1]; an empty histogram
// returns 0. The result over-estimates the true quantile by at most one
// log2 bucket width — the usual bucketed-quantile trade, fine for the
// load-generator latency percentiles it serves.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(h.total)))
	if need < 1 {
		need = 1
	}
	var cum int64
	var last int64
	for _, b := range h.Buckets() {
		cum += b.Count
		switch {
		case b.Negative:
			last = -b.Lo
		case b.Lo == 0:
			last = 0
		default:
			last = b.Hi - 1
		}
		if cum >= need {
			return last
		}
	}
	return last
}

// Series is a fixed-width windowed counter time series, used for the
// Figure 3 long-seek-over-time plots (windowed by operation number).
type Series struct {
	Width int64 // operations per window
	vals  []int64
}

// NewSeries returns a series with the given window width (minimum 1).
func NewSeries(width int64) *Series {
	if width < 1 {
		width = 1
	}
	return &Series{Width: width}
}

// Add increments the window containing operation index op by delta.
func (s *Series) Add(op int64, delta int64) {
	w := int(op / s.Width)
	for len(s.vals) <= w {
		s.vals = append(s.vals, 0)
	}
	s.vals[w] += delta
}

// Values returns a copy of the per-window totals.
func (s *Series) Values() []int64 {
	out := make([]int64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Sub returns a new series of s minus other, window-wise (used for the
// "LS minus NoLS" differential the paper plots). Both must share Width.
func (s *Series) Sub(other *Series) (*Series, error) {
	if s.Width != other.Width {
		return nil, fmt.Errorf("metrics: window widths differ (%d vs %d)", s.Width, other.Width)
	}
	n := len(s.vals)
	if len(other.vals) > n {
		n = len(other.vals)
	}
	out := NewSeries(s.Width)
	out.vals = make([]int64, n)
	for i := 0; i < n; i++ {
		var a, b int64
		if i < len(s.vals) {
			a = s.vals[i]
		}
		if i < len(other.vals) {
			b = other.vals[i]
		}
		out.vals[i] = a - b
	}
	return out, nil
}
