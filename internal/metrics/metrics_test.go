package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSAF(t *testing.T) {
	cases := []struct {
		v, b int64
		want float64
	}{
		{10, 10, 1},
		{20, 10, 2},
		{5, 10, 0.5},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := SAF(c.v, c.b); got != c.want {
			t.Errorf("SAF(%d,%d) = %v, want %v", c.v, c.b, got, c.want)
		}
	}
	if got := SAF(5, 0); !math.IsInf(got, 1) {
		t.Errorf("SAF(5,0) = %v, want +Inf", got)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF()
	if c.At(10) != 0 {
		t.Error("empty CDF should return zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		c.Observe(v)
	}
	if len(c.samples) != 5 {
		t.Fatalf("%d samples, want 5", len(c.samples))
	}
	if got := c.At(3); got != 0.6 {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
	if got := c.At(1); got != 0.2 {
		t.Errorf("At(1) = %v, want 0.2", got)
	}
	if got := c.At(5); got != 1 {
		t.Errorf("At(5) = %v, want 1", got)
	}
}

// Property: At is monotone and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []int16, a, b int16) bool {
		c := NewCDF()
		for _, v := range vals {
			c.Observe(float64(v))
		}
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		pa, pb := c.At(lo), c.At(hi)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{0, 1, 1, 3, -5, 1000, -1000} {
		h.Observe(v)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	var sum int64
	for _, b := range h.Buckets() {
		sum += b.Count
		if b.Lo >= b.Hi {
			t.Errorf("bucket %+v has Lo >= Hi", b)
		}
	}
	if sum != 7 {
		t.Fatalf("bucket counts sum to %d", sum)
	}
	// Buckets must be sorted: negatives descending in magnitude first.
	bs := h.Buckets()
	signed := func(b Bucket) float64 {
		v := float64(b.Lo)
		if b.Negative {
			return -v
		}
		return v
	}
	if !sort.SliceIsSorted(bs, func(i, j int) bool { return signed(bs[i]) < signed(bs[j]) }) {
		t.Errorf("buckets not ordered: %+v", bs)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d", got)
	}
	// 100 samples of 10 (bucket [8,16)), 10 of 1000 (bucket [512,1024)).
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("Quantile(0.5) = %d, want 15 (upper edge of [8,16))", got)
	}
	if got := h.Quantile(0.90); got != 15 {
		t.Errorf("Quantile(0.90) = %d, want 15", got)
	}
	if got := h.Quantile(0.99); got != 1023 {
		t.Errorf("Quantile(0.99) = %d, want 1023 (upper edge of [512,1024))", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Errorf("Quantile(1) = %d, want 1023", got)
	}
	if got, want := h.Quantile(-1), h.Quantile(0); got != want {
		t.Errorf("Quantile(-1) = %d, want clamp to Quantile(0) = %d", got, want)
	}
	// Negative samples sort first: a heavily negative histogram's low
	// quantiles are negative.
	neg := NewHistogram()
	for i := 0; i < 10; i++ {
		neg.Observe(-100)
	}
	neg.Observe(7)
	if got := neg.Quantile(0.5); got != -64 {
		t.Errorf("negative Quantile(0.5) = %d, want -64 (boundary of (-128,-64])", got)
	}
	if got := neg.Quantile(1); got != 7 {
		t.Errorf("negative Quantile(1) = %d, want 7", got)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(10)
	s.Add(0, 1)
	s.Add(9, 1)
	s.Add(10, 5)
	s.Add(35, 2)
	got := s.Values()
	want := []int64{2, 5, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("Values = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
}

func TestSeriesSub(t *testing.T) {
	a := NewSeries(10)
	b := NewSeries(10)
	a.Add(0, 5)
	a.Add(10, 3)
	b.Add(0, 2)
	b.Add(25, 7) // b is longer
	diff, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 3, -7}
	got := diff.Values()
	if len(got) != len(want) {
		t.Fatalf("diff = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diff = %v, want %v", got, want)
		}
	}
	if _, err := a.Sub(NewSeries(5)); err == nil {
		t.Error("mismatched widths must error")
	}
}

func TestSeriesWidthClamp(t *testing.T) {
	s := NewSeries(0)
	if s.Width != 1 {
		t.Errorf("width clamped to %d", s.Width)
	}
}
