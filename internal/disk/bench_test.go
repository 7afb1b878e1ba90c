package disk

import (
	"math/rand"
	"testing"

	"smrseek/internal/geom"
)

func BenchmarkDoSequential(b *testing.B) {
	d := New()
	pos := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Do(Read, geom.Ext(pos, 8))
		pos += 8
	}
}

func BenchmarkDoRandom(b *testing.B) {
	d := New()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Do(Write, geom.Ext(rng.Int63n(1<<30), 8))
	}
}

func BenchmarkSeekTime(b *testing.B) {
	m := DefaultTimeModel()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SeekTime(rng.Int63n(1<<32) - 1<<31)
	}
}
