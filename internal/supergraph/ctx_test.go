package supergraph

import (
	"context"
	"errors"
	"testing"
)

// TestMineCtxPreCancelled asserts mining stops at the first checkpoint
// under a done context, wrapping the context error.
func TestMineCtxPreCancelled(t *testing.T) {
	g, f := twoRegionGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MineCtx(ctx, g, f, MineOptions{KappaMax: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
