// Package graph provides the undirected weighted graph substrate shared by
// the road graph, the supergraph and the partitioning machinery: immutable
// flat adjacency rows filled by one Builder, the two connected-component
// walks (FIFO breadth-first search, the algorithm the paper names in
// Section 4.3.1) behind every connectivity question — the pieces of a
// labeling and the pieces of a node subset — induced subgraphs, quotient
// graphs and conversion to sparse adjacency matrices.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"roadpart/internal/linalg"
)

// Edge is one directed half of an undirected edge: a neighbor and the
// weight of the connection.
type Edge struct {
	To int
	W  float64
}

// Graph is an immutable undirected weighted graph on nodes 0..N()-1,
// stored as flat rows: node u's edges are edges[off[u]:off[u+1]]. Build one
// with a Builder. Parallel edges are permitted; self-loops are not.
type Graph struct {
	off   []int // len N()+1
	edges []Edge
}

// Builder collects the edges of a Graph. Build lays them out row by row
// in AddEdge order, so Neighbors(u) lists u's edges in the order they
// were added.
type Builder struct {
	n    int
	list []builderEdge
}

// builderEdge is one recorded edge. 32-bit ids keep the list, the
// largest transient of a build, at 16 bytes per edge.
type builderEdge struct {
	u, v int32
	w    float64
}

// NewBuilder returns a Builder for a graph on n nodes. It panics if n is
// negative or too large for the builder's 32-bit node ids.
func NewBuilder(n int) *Builder {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: NewBuilder with size %d", n))
	}
	return &Builder{n: n}
}

// AddEdge records an edge between u and v with weight w. It returns an
// error for out-of-range endpoints or self-loops.
func (b *Builder) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) outside %d nodes", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if len(b.list) == cap(b.list) {
		// Double by hand: append grows large slices by only 1.25×, which
		// re-copies an XL edge list about five times over.
		b.list = append(make([]builderEdge, 0, 2*cap(b.list)+16), b.list...)
	}
	b.list = append(b.list, builderEdge{int32(u), int32(v), w})
	return nil
}

// Build returns the graph of the edges added so far: one degree count,
// then one placement pass in AddEdge order.
func (b *Builder) Build() *Graph {
	off := make([]int, b.n+1)
	for _, e := range b.list {
		off[e.u+1]++
		off[e.v+1]++
	}
	for u := 0; u < b.n; u++ {
		off[u+1] += off[u]
	}
	// off[u] serves as row u's fill cursor; once every edge is placed it
	// has advanced to the start of row u+1, and one shift restores it.
	edges := make([]Edge, off[b.n])
	for _, e := range b.list {
		edges[off[e.u]] = Edge{To: int(e.v), W: e.w}
		off[e.u]++
		edges[off[e.v]] = Edge{To: int(e.u), W: e.w}
		off[e.v]++
	}
	copy(off[1:], off[:b.n])
	off[0] = 0
	return &Graph{off: off, edges: edges}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) / 2 }

// Neighbors returns the edges of node u in the order they were added. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Edge {
	lo, hi := g.off[u], g.off[u+1]
	return g.edges[lo:hi:hi]
}

// Degree returns the number of incident edge endpoints at u
// (parallel edges count separately).
func (g *Graph) Degree(u int) int { return g.off[u+1] - g.off[u] }

// WeightedDegree returns the sum of weights of edges incident to u.
func (g *Graph) WeightedDegree(u int) float64 {
	var s float64
	for _, e := range g.Neighbors(u) {
		s += e.W
	}
	return s
}

// TotalWeight returns the sum of all edge weights (each undirected edge
// counted once).
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.W
	}
	return s / 2
}

// HasEdge reports whether at least one edge connects u and v.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return false
	}
	// Scan the shorter list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, e := range g.Neighbors(u) {
		if e.To == v {
			return true
		}
	}
	return false
}

// AdjacencyCSR builds the (symmetric) weighted adjacency matrix one row
// at a time: each row is stably sorted by column, parallel edges are
// summed in the order they were added, and zero sums are dropped.
func (g *Graph) AdjacencyCSR() (*linalg.CSR, error) {
	n, maxDeg := g.N(), 0
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	row := make([]Edge, 0, maxDeg)
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, len(g.edges))
	vals := make([]float64, 0, len(g.edges))
	for u := 0; u < n; u++ {
		row = append(row[:0], g.Neighbors(u)...)
		slices.SortStableFunc(row, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		for i := 0; i < len(row); {
			j, v := row[i].To, 0.0
			for ; i < len(row) && row[i].To == j; i++ {
				v += row[i].W
			}
			colIdx, vals = append(colIdx, j), append(vals, v)
		}
		rowPtr[u+1] = len(colIdx)
	}
	return linalg.NewCSR(n, n, rowPtr, colIdx, vals)
}

// IsConnectedSubset reports whether the subgraph induced by the given node
// set is connected (an empty or singleton set counts as connected; a set
// with a repeated node or a node outside the graph does not). It verifies
// condition C.2 of the problem definition for one partition. Each call
// allocates an N()-length mark buffer; a caller checking many subsets
// should reuse one through SubsetComponents.
func (g *Graph) IsConnectedSubset(nodes []int) bool {
	if len(nodes) <= 1 {
		return true
	}
	if slices.ContainsFunc(nodes, func(v int) bool { return v < 0 || v >= g.N() }) {
		return false
	}
	return len(g.SubsetComponents(nodes, make([]bool, g.N()))[0]) == len(nodes)
}

// Induced returns the subgraph induced by nodes, plus the mapping from new
// index to original node id. Duplicate entries in nodes are an error.
func (g *Graph) Induced(nodes []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(nodes))
	for i, v := range nodes {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: induced node %d outside %d", v, g.N())
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in induced set", v)
		}
		idx[v] = i
	}
	b := NewBuilder(len(nodes))
	for i, v := range nodes {
		for _, e := range g.Neighbors(v) {
			j, ok := idx[e.To]
			if !ok || j <= i { // add each undirected edge once
				continue
			}
			if err := b.AddEdge(i, j, e.W); err != nil {
				return nil, nil, err
			}
		}
	}
	orig := make([]int, len(nodes))
	copy(orig, nodes)
	return b.Build(), orig, nil
}

// Reweighted returns a copy of g with every edge's weight replaced by
// fn(u, v, w). Useful for turning a topology-only adjacency into a
// congestion-affinity graph.
func (g *Graph) Reweighted(fn func(u, v int, w float64) float64) *Graph {
	b := &Builder{n: g.N(), list: make([]builderEdge, 0, g.M())}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				// Errors are impossible: endpoints were validated on entry.
				_ = b.AddEdge(u, e.To, fn(u, e.To, e.W))
			}
		}
	}
	return b.Build()
}

// Quotient returns the graph on the groups 0..k-1 of labels: groups a and
// b are joined when at least one edge of g runs between them, weighted by
// the root mean square of term(u, v, w) over those edges (u < v, summed in
// edge order). Pairs are added in ascending (a, b) order, so the result
// does not depend on map iteration.
func (g *Graph) Quotient(labels []int, k int, term func(u, v int, w float64) float64) (*Graph, error) {
	type pair struct{ a, b int }
	sum := map[pair]float64{}
	cnt := map[pair]int{}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			a, b := labels[u], labels[e.To]
			if e.To <= u || a == b {
				continue
			}
			t := term(u, e.To, e.W)
			p := pair{min(a, b), max(a, b)}
			sum[p] += t * t
			cnt[p]++
		}
	}
	keys := make([]pair, 0, len(sum))
	for p := range sum {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, func(x, y pair) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) })
	b := NewBuilder(k)
	for _, p := range keys {
		if err := b.AddEdge(p.a, p.b, math.Sqrt(sum[p]/float64(cnt[p]))); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// GroupComponents splits every group of the given labeling into its
// connected components within g and returns a refined labeling plus the
// refined group count. It is used both for supernode creation (Alg. 1
// lines 11–17) and for extracting disjoint partitions from spectral
// clusters (Alg. 3 line 11); over an all-zero labeling it labels the
// graph's own components.
func (g *Graph) GroupComponents(group []int) ([]int, int) {
	comp := make([]int, g.N())
	count := g.GroupComponentsInto(group, comp, g.N()+1)
	return comp, count
}

// GroupComponentsInto is GroupComponents writing the refined labels into
// the caller's comp slice (length N(); prior contents are ignored), which
// must not alias group. Pieces are found by FIFO breadth-first search —
// the component algorithm the paper names in Section 4.3.1 — and
// numbered by their lowest node, so the labeling does not depend on the
// traversal order. The queue comes from the shared scratch pool, so
// sweeps that label components repeatedly allocate nothing.
//
// The walk stops once the count reaches bound: it returns min(count,
// bound), and the labels are complete only when count < bound (comp is
// unspecified otherwise). A caller that only wants a count below some
// best so far passes that best and pays for a losing labeling only up
// to it; a caller that needs the labels passes a bound above N().
func (g *Graph) GroupComponentsInto(group, comp []int, bound int) int {
	n := g.N()
	if len(group) != n || len(comp) != n {
		panic(fmt.Sprintf("graph: GroupComponents lengths %d/%d != %d nodes", len(group), len(comp), n))
	}
	for i := range comp {
		comp[i] = -1
	}
	qbuf := linalg.GetInts(n)
	defer linalg.PutInts(qbuf)
	count := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		if count+1 >= bound {
			return bound // opening this piece makes count >= bound
		}
		comp[s] = count
		queue := append(qbuf[:0], s)
		for q := 0; q < len(queue); q++ {
			u := queue[q]
			gu := group[u]
			for _, e := range g.Neighbors(u) {
				if comp[e.To] < 0 && group[e.To] == gu {
					comp[e.To] = count
					queue = append(queue, e.To)
				}
			}
		}
		count++
	}
	return count
}

// SubsetComponents returns the connected components of the subgraph of g
// induced by the node set members (a repeated member is listed once,
// where it is first reached). Components come in the order of their
// first node in members, and each lists its nodes in FIFO breadth-first
// discovery order: the slice is its own queue. mark is the caller's
// scratch of length N(), all false on entry and all false again on
// return, so repeated splits reuse it without clearing; the only
// allocations are the component slices, which the caller may keep. It is
// the walk behind Algorithm 2's re-split of an unstable supernode.
func (g *Graph) SubsetComponents(members []int, mark []bool) [][]int {
	if len(mark) != g.N() {
		panic(fmt.Sprintf("graph: subset mark length %d != %d nodes", len(mark), g.N()))
	}
	// mark[v] is true while v is a member not yet reached.
	for _, v := range members {
		mark[v] = true
	}
	var comps [][]int
	for _, s := range members {
		if !mark[s] {
			continue
		}
		mark[s] = false
		comp := []int{s}
		for q := 0; q < len(comp); q++ {
			for _, e := range g.Neighbors(comp[q]) {
				if mark[e.To] {
					mark[e.To] = false
					comp = append(comp, e.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
