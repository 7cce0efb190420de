package cluster

import (
	"context"
	"errors"
	"testing"
)

// TestSweepKappaCtxPreCancelled asserts the κ-sweep stops before its
// first κ under a done context, wrapping the context error.
func TestSweepKappaCtxPreCancelled(t *testing.T) {
	data := make([]float64, 60)
	for i := range data {
		data[i] = float64(i % 3)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepKappaCtx(ctx, data, SweepOptions{KappaMax: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
