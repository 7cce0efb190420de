package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{-1, 1}, []float64{1, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.x, c.y); got != c.want {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	cases := []struct {
		x    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{3, 4}, 5},
		{[]float64{-3, 4}, 5},
		{[]float64{1e200, 1e200}, math.Sqrt2 * 1e200}, // overflow guard
		{[]float64{1e-200, 1e-200}, math.Sqrt2 * 1e-200},
	}
	for _, c := range cases {
		if got := Norm2(c.x); !almostEq(got, c.want, 1e-14) {
			t.Errorf("Norm2(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNorm2MatchesNaive(t *testing.T) {
	f := func(x []float64) bool {
		// Clamp to a safe range for the naive reference.
		for i := range x {
			x[i] = math.Mod(x[i], 1e6)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
		}
		var ss float64
		for _, v := range x {
			ss += v * v
		}
		return almostEq(Norm2(x), math.Sqrt(ss), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAxpyAndScale(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, y)
	want := []float64{21, 42, 63}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float64{10.5, 21, 31.5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Scale result %v, want %v", y, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if n != 5 {
		t.Fatalf("Normalize returned %v, want 5", n)
	}
	if !almostEq(Norm2(v), 1, 1e-15) {
		t.Fatalf("normalized vector has norm %v", Norm2(v))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
}

// TestAxpyDotMatchesAxpyThenDot pins the fused sweep to Axpy followed by
// Dot bit for bit — the updated y and the returned sum — on random
// vectors and on signed zeros, subnormals and values near overflow.
func TestAxpyDotMatchesAxpyThenDot(t *testing.T) {
	rng := uint64(7)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11)/(1<<53)*2 - 1
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, 1e-310,
		math.MaxFloat64, -math.MaxFloat64, 1e308, 1.5, -2.25}
	vec := func(n int, pick func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = pick(i)
		}
		return v
	}
	fromSpecial := func(int) float64 { return special[int(uint64(next()*1e9)%uint64(len(special)))] }
	scaled := func(int) float64 { return next() * math.Exp(40*next()) }
	for trial := 0; trial < 200; trial++ {
		n := trial % 37
		pick := scaled
		if trial%2 == 1 {
			pick = fromSpecial
		}
		x, y, z := vec(n, pick), vec(n, pick), vec(n, pick)
		for _, a := range []float64{next(), 0, math.Copysign(0, -1), 1e300, -3e-320} {
			want := append([]float64(nil), y...)
			Axpy(a, x, want)
			wantDot := Dot(want, z)
			got := append([]float64(nil), y...)
			gotDot := AxpyDot(a, x, got, z)
			if math.Float64bits(gotDot) != math.Float64bits(wantDot) && !(gotDot != gotDot && wantDot != wantDot) {
				t.Fatalf("trial %d a=%v: AxpyDot returned %v, Axpy+Dot %v", trial, a, gotDot, wantDot)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
					t.Fatalf("trial %d a=%v: y[%d] = %v, Axpy gives %v", trial, a, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAxpyDotPanicsOnMismatch(t *testing.T) {
	for _, tc := range [][3]int{{1, 2, 2}, {2, 1, 2}, {2, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AxpyDot with lengths %v did not panic", tc)
				}
			}()
			AxpyDot(1, make([]float64, tc[0]), make([]float64, tc[1]), make([]float64, tc[2]))
		}()
	}
}
