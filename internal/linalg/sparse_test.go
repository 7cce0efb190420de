package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCSRAssembly(t *testing.T) {
	m, err := NewCSR(3, 3, []Coord{
		{0, 1, 2}, {1, 0, 2}, {1, 2, 5}, {2, 1, 5}, {0, 1, 1}, // duplicate (0,1) sums
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.vals) != 4 {
		t.Fatalf("stored entries = %d, want 4", len(m.vals))
	}
	if m.At(0, 1) != 3 {
		t.Fatalf("At(0,1) = %v, want 3 (duplicates summed)", m.At(0, 1))
	}
	if m.At(0, 0) != 0 || m.At(2, 2) != 0 {
		t.Fatal("absent entries should be zero")
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Coord{{2, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-range row")
	}
	if _, err := NewCSR(-1, 2, nil); err == nil {
		t.Fatal("expected error for negative dimension")
	}
}

func TestCSRDropsExplicitZeroSums(t *testing.T) {
	m, err := NewCSR(2, 2, []Coord{{0, 0, 1}, {0, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.vals) != 0 {
		t.Fatalf("entries that cancel should be dropped, stored = %d", len(m.vals))
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	f := func(raw []float64) bool {
		const n = 7
		var entries []Coord
		for i, v := range raw {
			if i >= n*n {
				break
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if math.Abs(v) > 0.5 { // sparsify
				entries = append(entries, Coord{i / n, i % n, math.Mod(v, 100)})
			}
		}
		m, err := NewCSR(n, n, entries)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i) - 3
		}
		got := make([]float64, n)
		want := make([]float64, n)
		m.MulVec(got, x)
		m.Dense().MulVec(want, x)
		for i := range got {
			if !almostEq(got[i], want[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRRowSums(t *testing.T) {
	m, err := NewCSR(2, 3, []Coord{{0, 0, 1}, {0, 2, 2}, {1, 1, -4}})
	if err != nil {
		t.Fatal(err)
	}
	d := m.RowSums()
	if d[0] != 3 || d[1] != -4 {
		t.Fatalf("RowSums = %v, want [3 -4]", d)
	}
}

func TestCSRRange(t *testing.T) {
	m, err := NewCSR(2, 4, []Coord{{0, 3, 5}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var cols []int
	m.Range(0, func(j int, v float64) { cols = append(cols, j) })
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 {
		t.Fatalf("Range order = %v, want [1 3]", cols)
	}
}

func TestBuilderAddSym(t *testing.T) {
	b := NewBuilder(3, 3)
	b.AddSym(0, 1, 2)
	b.AddSym(2, 2, 7) // diagonal recorded once
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 2 {
		t.Fatal("AddSym should mirror off-diagonal entries")
	}
	if m.At(2, 2) != 7 {
		t.Fatalf("diagonal = %v, want 7 (not doubled)", m.At(2, 2))
	}
}
