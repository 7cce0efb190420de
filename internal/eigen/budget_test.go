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

// spreadOp is diag(0, 1, …, n−1): its lowest eigenvalues sit so close
// together against the width of the spectrum that Lanczos cannot certify
// them before the basis cap, so a solve applies it at every column.
type spreadOp struct{ n int }

func (o spreadOp) Dim() int { return o.n }
func (o spreadOp) Apply(dst, x []float64) {
	for i := range dst {
		dst[i] = float64(i) * x[i]
	}
}

// countingOp counts its applications into *applied.
type countingOp struct {
	Op
	applied *int
}

func (o countingOp) Apply(dst, x []float64) {
	*o.applied++
	o.Op.Apply(dst, x)
}

// TestLanczosDeadlineStopsSlowOperator asserts the threaded context is a
// real iteration budget: a slow operator under a short deadline degrades
// to a clean wrapped error instead of running its full step count.
func TestLanczosDeadlineStopsSlowOperator(t *testing.T) {
	const delay, deadline = 5 * time.Millisecond, 25 * time.Millisecond
	// Left alone, the solve runs to the basis cap, many times the
	// deadline's worth of slow applications, so only the deadline can
	// stop it early.
	applied := 0
	if _, err := Lanczos(context.Background(), countingOp{spreadOp{n: 400}, &applied}, 4, LanczosOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if work := time.Duration(applied) * delay; work < 10*deadline {
		t.Fatalf("an undeadlined solve applies the operator %d times (%v slowed), want at least 10× the %v deadline", applied, work, deadline)
	}
	op := slowOp{Op: spreadOp{n: 400}, delay: delay}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
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
	// With one step of overrun the deadline comes in far below a second.
	if elapsed > time.Second {
		t.Fatalf("Lanczos ran %v past a %v deadline", elapsed, deadline)
	}
}
