package eigen

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// zeroOp is the Laplacian of an edgeless graph: the fully degenerate
// case where every vector is an eigenvector with eigenvalue 0, so the
// Krylov space collapses after one step and Lanczos lives in its
// invariant-subspace restart path.
type zeroOp struct{ n int }

func (o zeroOp) Dim() int { return o.n }
func (o zeroOp) Apply(dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

// slowOp wraps an operator with a per-application delay, standing in for
// a pathologically expensive matvec.
type slowOp struct {
	Op
	delay time.Duration
}

func (o slowOp) Apply(dst, x []float64) {
	time.Sleep(o.delay)
	o.Op.Apply(dst, x)
}

// TestLanczosDegenerateTerminates is the regression test for the
// near-degenerate-Laplacian budget: on a fully degenerate operator the
// restart logic must terminate on its own (bounded restart attempts)
// even with no deadline, returning the k zero eigenvalues.
func TestLanczosDegenerateTerminates(t *testing.T) {
	done := make(chan struct{})
	var dec *Decomposition
	var err error
	go func() {
		defer close(done)
		dec, err = Lanczos(context.Background(), zeroOp{n: 50}, 3, LanczosOptions{Seed: 1})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Lanczos did not terminate on a degenerate operator")
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec.Values {
		if v < -1e-9 || v > 1e-9 {
			t.Fatalf("eigenvalue %d = %v, want 0 on the zero operator", i, v)
		}
	}
}

// TestLanczosDeadlineStopsSlowOperator asserts the threaded context is a
// real iteration budget: a slow operator under a short deadline degrades
// to a clean wrapped error instead of running its full step count.
func TestLanczosDeadlineStopsSlowOperator(t *testing.T) {
	op := slowOp{Op: zeroOp{n: 400}, delay: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Lanczos(ctx, op, 4, LanczosOptions{Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("error %q does not describe the interruption", err)
	}
	// Left alone, the solve stops at its first convergence check, about
	// eight 5ms applications in; the deadline must cut it before that,
	// and with one step of overrun it comes in far below a second.
	if elapsed > time.Second {
		t.Fatalf("Lanczos ran %v past a 25ms deadline", elapsed)
	}
}
