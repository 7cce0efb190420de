package linalg

import (
	"fmt"
	"testing"
)

func TestGetVecZeroedAndReused(t *testing.T) {
	v := GetVec(64)
	if len(v) != 64 {
		t.Fatalf("GetVec(64) len = %d", len(v))
	}
	for i := range v {
		v[i] = float64(i) + 1
	}
	PutVec(v)
	// The next Get of an equal-or-smaller size must come back zeroed no
	// matter what the previous user left behind.
	w := GetVec(32)
	for i, x := range w {
		if x != 0 {
			t.Fatalf("GetVec reuse not zeroed at %d: %v", i, x)
		}
	}
	PutVec(w)
}

func TestGetIntsZeroedAndReused(t *testing.T) {
	v := GetInts(64)
	if len(v) != 64 {
		t.Fatalf("GetInts(64) len = %d", len(v))
	}
	for i := range v {
		v[i] = i + 1
	}
	PutInts(v)
	w := GetInts(64)
	for i, x := range w {
		if x != 0 {
			t.Fatalf("GetInts reuse not zeroed at %d: %v", i, x)
		}
	}
	PutInts(w)
}

func TestPutVecEmptyIsSafe(t *testing.T) {
	PutVec(nil)
	PutVec([]float64{})
	PutInts(nil)
	PutInts([]int{})
}

// TestCSRMulVecAllocFree pins the CSR matvec — the inner kernel of
// every Lanczos step, serial at every size — at zero steady-state
// allocations, small and large. This is one of the allocation-free
// hot-path pins of docs/PERFORMANCE.md.
func TestCSRMulVecAllocFree(t *testing.T) {
	for _, n := range []int{512, 4096} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var entries []entry
			for i := 0; i < n; i++ {
				entries = sym(entries, i, (i+1)%n, 1.5)
				entries = sym(entries, i, (i+7)%n, 0.5)
			}
			m := csrOf(t, n, n, entries)
			x := make([]float64, n)
			dst := make([]float64, n)
			for i := range x {
				x[i] = float64(i%13) - 6
			}
			allocs := testing.AllocsPerRun(100, func() { m.MulVec(dst, x) })
			if allocs != 0 {
				t.Fatalf("CSR.MulVec allocates %v per call, want 0", allocs)
			}
		})
	}
}
