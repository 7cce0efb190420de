package linalg

import "testing"

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	m.Add(1, 2, 3)
	if m.At(1, 2) != 10 {
		t.Fatalf("Add failed: %v", m.At(1, 2))
	}
}

func TestDenseFromAndRow(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 9 // row aliases storage
	if m.At(1, 0) != 9 {
		t.Fatal("Row should alias matrix storage")
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", dst)
	}
}

func TestDensePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative dims":   func() { NewDense(-1, 2) },
		"bad data length": func() { NewDenseFrom(2, 2, []float64{1}) },
		"At out of range": func() { NewDense(2, 2).At(2, 0) },
		"mulvec mismatch": func() { NewDense(2, 2).MulVec(make([]float64, 2), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
