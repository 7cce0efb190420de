package cut

import (
	"context"
	"testing"
)

// TestFlatLevelIdentity pins the flat-path contract: NewSpectralLevel
// over a FlatLevel must return bit-identical results to NewSpectral on
// the same graph — ProjectToFinest is the identity, so the multilevel
// plumbing cannot perturb legacy outputs.
func TestFlatLevelIdentity(t *testing.T) {
	g := barbell(6, 1, 0.25)
	for _, method := range []Method{MethodAlphaCut, MethodNCut} {
		direct := NewSpectral(g, method, Options{Seed: 3})
		viaLevel := NewSpectralLevel(Flat(g), method, Options{Seed: 3})
		for k := 1; k <= 4; k++ {
			a, err := direct.PartitionCtx(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := viaLevel.PartitionCtx(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			if a.K != b.K || a.KPrime != b.KPrime {
				t.Fatalf("method %v k=%d: (K,K')=(%d,%d) direct vs (%d,%d) via FlatLevel",
					method, k, a.K, a.KPrime, b.K, b.KPrime)
			}
			for i := range a.Assign {
				if a.Assign[i] != b.Assign[i] {
					t.Fatalf("method %v k=%d: assignment differs at %d", method, k, i)
				}
			}
		}
	}
}

func TestFlatLevelProjectIsIdentity(t *testing.T) {
	g := barbell(4, 1, 0.3)
	lv := Flat(g)
	if lv.Graph() != g {
		t.Fatal("FlatLevel.Graph() is not the wrapped graph")
	}
	labels := []int{0, 1, 0, 1, 2, 2, 0, 1}
	out, k, err := lv.ProjectToFinest(context.Background(), labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("identity projection changed k to %d", k)
	}
	for i := range labels {
		if out[i] != labels[i] {
			t.Fatal("identity projection changed labels")
		}
	}
}
