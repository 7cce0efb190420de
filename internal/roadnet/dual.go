package roadnet

import (
	"fmt"

	"roadpart/internal/graph"
)

// DualGraph constructs the road graph G = (V, E) of Definition 2: one node
// per road segment, and an undirected unit-weight link between every pair
// of segments that share at least one intersection point. Segments meeting
// in a star topology therefore form a clique, while linear chains stay
// linear. A pair sharing both endpoints (the two directions of a two-way
// road) still gets a single link.
//
// Node i of the returned graph corresponds to Segments[i].
func DualGraph(n *Network) (*graph.Graph, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	// Incident segments (either direction) at every intersection.
	incident := make([][]int, len(n.Intersections))
	for i, s := range n.Segments {
		incident[s.From] = append(incident[s.From], i)
		incident[s.To] = append(incident[s.To], i)
	}

	// Clique per intersection, deduplicating pairs that share two
	// intersections. seen[v] holds u+1 for the most recent u for which
	// (u,v) was added; since pairs are visited with u ascending within and
	// across cliques this gives exact deduplication per u.
	nSeg := len(n.Segments)
	seen := make([]int, nSeg)
	b := graph.NewBuilder(nSeg)
	for u := 0; u < nSeg; u++ {
		s := n.Segments[u]
		for _, ι := range [2]int{s.From, s.To} {
			for _, v := range incident[ι] {
				if v <= u || seen[v] == u+1 {
					continue
				}
				seen[v] = u + 1
				if err := b.AddEdge(u, v, 1); err != nil {
					return nil, fmt.Errorf("roadnet: dual edge (%d,%d): %w", u, v, err)
				}
			}
		}
	}
	return b.Build(), nil
}
