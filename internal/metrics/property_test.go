package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestARISymmetryProperty: ARI(a, b) == ARI(b, a) for random labelings.
func TestARISymmetryProperty(t *testing.T) {
	f := func(rawA, rawB []uint8, nn uint8) bool {
		n := int(nn%30) + 2
		a := make([]int, n)
		b := make([]int, n)
		for i := 0; i < n; i++ {
			if i < len(rawA) {
				a[i] = int(rawA[i] % 4)
			}
			if i < len(rawB) {
				b[i] = int(rawB[i] % 4)
			}
		}
		ab, err1 := ARI(a, b)
		ba, err2 := ARI(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		d := ab - ba
		return d < 1e-12 && d > -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestARISelfIdentityProperty: ARI(a, a) == 1 whenever a has at least two
// distinct labels (with a single label both indices coincide and the
// convention returns 1 as well).
func TestARISelfIdentityProperty(t *testing.T) {
	f := func(raw []uint8, nn uint8) bool {
		n := int(nn%30) + 2
		a := make([]int, n)
		for i := 0; i < n; i++ {
			if i < len(raw) {
				a[i] = int(raw[i] % 5)
			}
		}
		v, err := ARI(a, a)
		if err != nil {
			return false
		}
		return v > 1-1e-12 && v < 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMeanCrossSymmetryProperty: the cross-partition mean distance is
// symmetric in its arguments.
func TestMeanCrossSymmetryProperty(t *testing.T) {
	f := func(rawA, rawB []int8) bool {
		if len(rawA) == 0 || len(rawB) == 0 {
			return true
		}
		fa := make([]float64, len(rawA))
		idxA := make([]int, len(rawA))
		for i, v := range rawA {
			fa[i] = float64(v)
			idxA[i] = i
		}
		fb := make([]float64, len(rawB))
		idxB := make([]int, len(rawB))
		for i, v := range rawB {
			fb[i] = float64(v)
			idxB[i] = i
		}
		a := newSortedPart(fa, idxA)
		b := newSortedPart(fb, idxB)
		x, y := meanCross(&a, &b), meanCross(&b, &a)
		d := x - y
		return d < 1e-9 && d > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newSortedPart is the per-partition build sortedParts replaced, kept as
// its oracle: the members' values in the given order, sorted, with their
// own prefix-sum slice.
func newSortedPart(f []float64, members []int) sortedPart {
	vals := make([]float64, len(members))
	for i, v := range members {
		vals[i] = f[v]
	}
	sort.Float64s(vals)
	prefix := make([]float64, len(vals)+1)
	for i, v := range vals {
		prefix[i+1] = prefix[i] + v
	}
	var mean float64
	if len(vals) > 0 {
		mean = prefix[len(vals)] / float64(len(vals))
	}
	return sortedPart{vals: vals, prefix: prefix, mean: mean}
}

// TestSortedPartsMatchesPerPart holds the shared-array build to the
// per-partition oracle bit for bit — values, prefix sums and means — on
// random labelings with empty partitions, ties, signed zeros and
// repeated values.
func TestSortedPartsMatchesPerPart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 0.1, 2.5, -3, 1e-300, 7}
	for trial := 0; trial < 500; trial++ {
		n, k := 1+rng.Intn(60), 1+rng.Intn(8)
		f := make([]float64, n)
		assign := make([]int, n)
		for v := range f {
			if rng.Intn(3) == 0 {
				f[v] = pool[rng.Intn(len(pool))]
			} else {
				f[v] = rng.NormFloat64()
			}
			assign[v] = rng.Intn(k)
		}
		got := sortedParts(f, assign, k)
		for p, members := range membership(assign, k) {
			want := newSortedPart(f, members)
			same := len(got[p].vals) == len(want.vals) && len(got[p].prefix) == len(want.prefix) &&
				math.Float64bits(got[p].mean) == math.Float64bits(want.mean)
			for i := range want.vals {
				same = same && math.Float64bits(got[p].vals[i]) == math.Float64bits(want.vals[i])
			}
			for i := range want.prefix {
				same = same && math.Float64bits(got[p].prefix[i]) == math.Float64bits(want.prefix[i])
			}
			if !same {
				t.Fatalf("trial %d partition %d: shared build %+v, per-part %+v", trial, p, got[p], want)
			}
		}
	}
}
