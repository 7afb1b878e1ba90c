package geom

import (
	"math/rand"
	"testing"
)

func BenchmarkSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(Ext(rng.Int63n(1<<20), int64(1+rng.Intn(512))))
		if len(s.exts) > 4096 {
			s.Remove(Ext(0, 1<<21)) // empty it, keeping its storage
		}
	}
}

func BenchmarkSetContains(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := NewSet()
	for i := 0; i < 2000; i++ {
		s.Add(Ext(rng.Int63n(1<<20), int64(1+rng.Intn(128))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(Ext(rng.Int63n(1<<20), 64))
	}
}

func BenchmarkExtentIntersect(b *testing.B) {
	x := Ext(100, 1000)
	y := Ext(600, 1000)
	for i := 0; i < b.N; i++ {
		_ = x.Intersect(y)
	}
}
