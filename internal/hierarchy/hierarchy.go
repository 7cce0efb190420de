// Package hierarchy builds multi-level congestion partitions: the whole
// network is partitioned into a few top-level regions, each region is
// recursively re-partitioned on its own densities, and the result is a
// region tree. Traffic management works at exactly these nested scales —
// city → district → corridor — and the paper's distributed regime
// (Section 6.4) is the two-level special case.
package hierarchy

import (
	"context"
	"fmt"

	"roadpart/internal/core"
	"roadpart/internal/graph"
	"roadpart/internal/roadnet"
)

// Node is one region in the tree. Leaves carry no children; every node
// knows the road segments it spans.
type Node struct {
	// Members are the road-graph node ids (segment ids) in this region.
	Members []int
	// Depth is 0 for the root, 1 for top-level regions, and so on.
	Depth int
	// MeanDensity is the average density over Members at build time.
	MeanDensity float64
	// ANS is the quality of this node's own split (0 for leaves).
	ANS float64
	// Children are the sub-regions; nil for leaves.
	Children []*Node
}

// Config tunes tree construction.
type Config struct {
	// Scheme is the partitioning scheme at every level. ASG everywhere is
	// the scalable choice.
	Scheme core.Scheme
	// MaxDepth bounds recursion below the root. 0 selects 3; any
	// negative value means "root only" (no splitting at all) — the
	// meaningful zero that a literal 0 cannot express.
	MaxDepth int
	// MinSize stops splitting regions with fewer segments. 0 selects 32;
	// "no size floor" is expressed as 1 (every region has at least one
	// segment), so no sentinel is needed.
	MinSize int
	// KMax bounds the per-level ANS sweep. 0 selects 6; a bound below 2
	// is meaningless, so no sentinel exists.
	KMax int
	// KeepANS: a region whose best split scores worse than this stays a
	// leaf. 0 selects 0.8; any negative value means "never split" (ANS
	// is non-negative, so every candidate split is refused).
	KeepANS float64
	// Seed drives all randomized stages.
	Seed uint64
}

func (c *Config) defaults() {
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.MinSize == 0 {
		c.MinSize = 32
	}
	if c.KMax == 0 {
		c.KMax = 6
	}
	if c.KeepANS == 0 {
		c.KeepANS = 0.8
	}
}

// Build constructs the region tree for the network's current densities.
func Build(net *roadnet.Network, cfg Config) (*Node, error) {
	cfg.defaults()
	g, err := roadnet.DualGraph(net)
	if err != nil {
		return nil, err
	}
	f := net.Densities()
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	root := &Node{Members: all, Depth: 0, MeanDensity: mean(f, all)}
	if err := split(g, f, root, cfg); err != nil {
		return nil, err
	}
	return root, nil
}

// split recursively partitions one node's induced subgraph.
func split(g *graph.Graph, f []float64, node *Node, cfg Config) error {
	if node.Depth >= cfg.MaxDepth || len(node.Members) < cfg.MinSize {
		return nil
	}
	sub, orig, err := g.Induced(node.Members)
	if err != nil {
		return err
	}
	subF := make([]float64, len(orig))
	for i, v := range orig {
		subF[i] = f[v]
	}
	best, err := core.BestSplit(context.TODO(), sub, subF, core.Config{Scheme: cfg.Scheme, Seed: cfg.Seed}, cfg.KMax, cfg.KeepANS)
	if err != nil || best == nil {
		return err // best == nil: no worthwhile split at this level
	}
	node.ANS = best.Report.ANS
	children := make([]*Node, best.K)
	for i := range children {
		children[i] = &Node{Depth: node.Depth + 1}
	}
	for local, part := range best.Assign {
		children[part].Members = append(children[part].Members, orig[local])
	}
	for _, child := range children {
		child.MeanDensity = mean(f, child.Members)
		if err := split(g, f, child, cfg); err != nil {
			return err
		}
	}
	node.Children = children
	return nil
}

// FlattenLevel returns the assignment induced by cutting the tree at the
// given depth: every segment gets the id of its deepest ancestor at depth
// ≤ level (leaves shallower than level keep their leaf region). Ids are
// dense in [0, K). Call it on the root node only — the result is indexed
// by segment id over the whole network.
func (n *Node) FlattenLevel(level int) ([]int, int) {
	// Count segments from the root.
	total := len(n.Members)
	out := make([]int, total)
	next := 0
	var walk func(node *Node)
	walk = func(node *Node) {
		if node.Depth >= level || node.Children == nil {
			for _, v := range node.Members {
				out[v] = next
			}
			next++
			return
		}
		for _, c := range node.Children {
			walk(c)
		}
	}
	walk(n)
	return out, next
}

// Leaves returns the tree's leaf nodes in depth-first order.
func (n *Node) Leaves() []*Node {
	if n.Children == nil {
		return []*Node{n}
	}
	var out []*Node
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Validate checks the tree's structural invariants against the graph:
// children partition their parent's members and every node's member set
// is connected. One mark buffer serves every node's subset walk, so the
// cost is one N()-length allocation plus the tree's member lists.
func (n *Node) Validate(g *graph.Graph) error {
	return n.validate(g, make([]bool, g.N()))
}

func (n *Node) validate(g *graph.Graph, mark []bool) error {
	for _, v := range n.Members {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("hierarchy: segment %d outside the %d-segment graph", v, g.N())
		}
	}
	if len(n.Members) > 1 && len(g.SubsetComponents(n.Members, mark)[0]) != len(n.Members) {
		return fmt.Errorf("hierarchy: node at depth %d is not connected", n.Depth)
	}
	if n.Children == nil {
		return nil
	}
	seen := map[int]bool{}
	total := 0
	for _, c := range n.Children {
		if c.Depth != n.Depth+1 {
			return fmt.Errorf("hierarchy: child depth %d under parent depth %d", c.Depth, n.Depth)
		}
		for _, v := range c.Members {
			if seen[v] {
				return fmt.Errorf("hierarchy: segment %d in two children", v)
			}
			seen[v] = true
		}
		total += len(c.Members)
		if err := c.validate(g, mark); err != nil {
			return err
		}
	}
	if total != len(n.Members) {
		return fmt.Errorf("hierarchy: children cover %d of %d members", total, len(n.Members))
	}
	return nil
}

// Describe writes a short structural summary usable in logs.
func (n *Node) Describe() string {
	leaves := n.Leaves()
	maxDepth := 0
	for _, l := range leaves {
		if l.Depth > maxDepth {
			maxDepth = l.Depth
		}
	}
	return fmt.Sprintf("%d segments, %d leaf regions, depth %d", len(n.Members), len(leaves), maxDepth)
}

func mean(f []float64, members []int) float64 {
	if len(members) == 0 {
		return 0
	}
	var s float64
	for _, v := range members {
		s += f[v]
	}
	return s / float64(len(members))
}
