package kmeans

import (
	"context"
	"errors"
	"testing"
)

func ctxTestPoints() [][]float64 {
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{float64(i % 4), float64(i / 4)}
	}
	return pts
}

// TestNDCtxPreCancelled asserts a done context stops NDCtx before any
// restart runs, with the context error wrapped in the kmeans error.
func TestNDCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NDCtx(ctx, ctxTestPoints(), 3, NDOptions{Restarts: 4, Seed: 9})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
