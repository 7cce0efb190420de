package kmeans

import (
	"context"
	"testing"
)

func BenchmarkOneD50k(b *testing.B) {
	data := make([]float64, 50000)
	rng := prng{state: 1}
	for i := range data {
		data[i] = rng.float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OneD(data, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkND5kBy8(b *testing.B) {
	rng := prng{state: 2}
	pts := make([][]float64, 5000)
	for i := range pts {
		p := make([]float64, 8)
		for j := range p {
			p[j] = rng.float64()
		}
		pts[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NDCtx(context.Background(), pts, 8, NDOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
