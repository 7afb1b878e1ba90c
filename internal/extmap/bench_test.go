package extmap

import (
	"math/rand"
	"testing"

	"smrseek/internal/geom"
)

// buildMap inserts n random extents, emulating a long-running log.
func buildMap(n int) *Map {
	rng := rand.New(rand.NewSource(1))
	m := New()
	frontier := int64(1 << 30)
	for i := 0; i < n; i++ {
		e := geom.Ext(rng.Int63n(1<<24), int64(1+rng.Intn(64)))
		m.Insert(e, frontier)
		frontier += e.Count
	}
	return m
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := New()
	frontier := int64(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := geom.Ext(rng.Int63n(1<<24), int64(1+rng.Intn(64)))
		m.Insert(e, frontier)
		frontier += e.Count
	}
}

func BenchmarkInsertFunc(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := New()
	frontier := int64(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := geom.Ext(rng.Int63n(1<<24), int64(1+rng.Intn(64)))
		m.InsertFunc(e, frontier, nil)
		frontier += e.Count
	}
}

func BenchmarkLookup(b *testing.B) {
	for _, size := range []int{1000, 100000} {
		m := buildMap(size)
		rng := rand.New(rand.NewSource(3))
		b.Run(itoa(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Lookup(geom.Ext(rng.Int63n(1<<24), 256))
			}
		})
	}
}

func BenchmarkLookupFunc(b *testing.B) {
	for _, size := range []int{1000, 100000} {
		m := buildMap(size)
		rng := rand.New(rand.NewSource(3))
		b.Run(itoa(size), func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				m.LookupFunc(geom.Ext(rng.Int63n(1<<24), 256), func(Resolved) bool {
					n++
					return true
				})
			}
		})
	}
}

func BenchmarkFragments(b *testing.B) {
	m := buildMap(100000)
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fragments(m, geom.Ext(rng.Int63n(1<<24), 256))
	}
}

func itoa(v int) string {
	if v >= 1000 {
		return itoa(v/1000) + "k"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}
