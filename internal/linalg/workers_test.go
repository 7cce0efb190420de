package linalg

import "testing"

func TestSetWorkersClampsNegative(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(-5)
	if w := teamWorkers.Load(); w != 1 {
		t.Fatalf("worker cap = %d after SetWorkers(-5), want 1", w)
	}
	SetWorkers(0)
	if w := teamWorkers.Load(); w != 0 {
		t.Fatalf("worker cap = %d after SetWorkers(0), want 0", w)
	}
}
