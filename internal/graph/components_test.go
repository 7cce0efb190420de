package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// closureComponents is the labeling walk as it stood before the group
// comparison was inlined: a FIFO search that asks keep(u, v) of every
// edge (keep == nil keeps everything) and numbers components by their
// lowest node.
func closureComponents(g *Graph, keep func(u, v int) bool) ([]int, int) {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.Neighbors(u) {
				if comp[e.To] >= 0 {
					continue
				}
				if keep != nil && !keep(u, e.To) {
					continue
				}
				comp[e.To] = count
				queue = append(queue, e.To)
			}
		}
		count++
	}
	return comp, count
}

// stampedSplit is the subset walk as it stood in the supernode stability
// split: generation-stamped in/seen arrays (value == gen means set) in
// place of one cleared mark buffer.
func stampedSplit(g *Graph, members []int, in, seen []int, gen int) [][]int {
	for _, v := range members {
		in[v] = gen
	}
	var comps [][]int
	for _, s := range members {
		if seen[s] == gen {
			continue
		}
		comp := []int{s}
		seen[s] = gen
		for q := 0; q < len(comp); q++ {
			for _, e := range g.Neighbors(comp[q]) {
				if in[e.To] == gen && seen[e.To] != gen {
					seen[e.To] = gen
					comp = append(comp, e.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// randomGraph draws a graph on 1–60 nodes from randomEdges: sparse draws
// leave it disconnected with isolated nodes, and pairs repeat as parallel
// edges.
func randomGraph(rng *rand.Rand) *Graph {
	n := 1 + rng.Intn(60)
	return build(n, randomEdges(rng, n, false)...)
}

// TestGroupComponentsMatchesClosureWalk holds the labeling walk to the
// closure walk bit for bit — labels and count — on random graphs with
// all-zero labelings and labelings into up to n groups, writing into a
// dirty buffer.
func TestGroupComponentsMatchesClosureWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	disconnected, split := 0, 0
	for trial := 0; trial < 500; trial++ {
		g := randomGraph(rng)
		n := g.N()
		groups := 1
		if trial%4 != 0 {
			groups = 1 + rng.Intn(n)
		}
		group := make([]int, n)
		for v := range group {
			group[v] = rng.Intn(groups)
		}
		want, wantCount := closureComponents(g, func(u, v int) bool { return group[u] == group[v] })
		comp := make([]int, n)
		for v := range comp {
			comp[v] = rng.Intn(3) - 1
		}
		count := g.GroupComponentsInto(group, comp, n+1)
		if count != wantCount || !slices.Equal(comp, want) {
			t.Fatalf("trial %d (n=%d, %d groups): got %d %v, oracle %d %v", trial, n, groups, count, comp, wantCount, want)
		}
		if groups == 1 {
			if whole, c := closureComponents(g, nil); c != count || !slices.Equal(whole, comp) {
				t.Fatalf("trial %d: zero labeling %v, unfiltered oracle %v", trial, comp, whole)
			}
			if count > 1 {
				disconnected++
			}
		} else if count > groups {
			split++
		}
	}
	if disconnected == 0 || split == 0 {
		t.Fatalf("vacuous: %d disconnected graphs, %d split labelings", disconnected, split)
	}
}

// TestGroupComponentsBoundedWalk holds the bounded walk to its contract
// over random labelings and every bound from 0 to two past the count:
// it returns min(count, bound), and below the bound its labels are the
// unbounded walk's, whatever comp held before.
func TestGroupComponentsBoundedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	stopped := 0
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng)
		n := g.N()
		groups := 1 + rng.Intn(n)
		group := make([]int, n)
		for v := range group {
			group[v] = rng.Intn(groups)
		}
		want, count := g.GroupComponents(group)
		comp := make([]int, n)
		for bound := 0; bound <= count+2; bound++ {
			for v := range comp {
				comp[v] = rng.Intn(n+1) - 1
			}
			got := g.GroupComponentsInto(group, comp, bound)
			if got != min(count, bound) {
				t.Fatalf("trial %d (n=%d): bound %d returned %d, want min(%d, %d)", trial, n, bound, got, count, bound)
			}
			if count < bound && !slices.Equal(comp, want) {
				t.Fatalf("trial %d: bound %d > count %d labelled %v, unbounded %v", trial, bound, count, comp, want)
			}
			if bound > 0 && bound <= count {
				stopped++
			}
		}
	}
	if stopped == 0 {
		t.Fatal("vacuous: no walk stopped at its bound")
	}
}

// TestSubsetComponentsMatchesStampedSplit holds the subset walk to the
// stamped split bit for bit — component order and member order — over a
// run of random duplicate-free subsets sharing one mark buffer, which
// must come back all false after every call.
func TestSubsetComponentsMatchesStampedSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	multi := 0
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng)
		n := g.N()
		mark := make([]bool, n)
		in, seen := make([]int, n), make([]int, n)
		for call := 1; call <= 10; call++ {
			members := rng.Perm(n)[:rng.Intn(n+1)]
			want := stampedSplit(g, members, in, seen, call)
			got := g.SubsetComponents(members, mark)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d call %d members %v: got %v, oracle %v", trial, call, members, got, want)
			}
			if slices.Contains(mark, true) {
				t.Fatalf("trial %d call %d: mark not cleared: %v", trial, call, mark)
			}
			if len(members) > 0 && g.IsConnectedSubset(members) != (len(want) == 1) {
				t.Fatalf("trial %d call %d: IsConnectedSubset(%v) disagrees with %d components", trial, call, members, len(want))
			}
			if len(want) > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("vacuous: no subset split into several components")
	}
}
