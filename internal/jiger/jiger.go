// Package jiger reimplements the Ji & Geroliminis method [5], the existing
// technique the paper compares against (Section 7): normalized-cut
// over-partitioning, merging of small partitions, and boundary adjustment
// of segments whose density better matches a neighboring partition.
package jiger

import (
	"context"
	"fmt"
	"math"

	"roadpart/internal/cut"
	"roadpart/internal/graph"
)

// Options tunes the baseline.
type Options struct {
	// Seed drives the spectral stage.
	Seed uint64
}

const (
	// overPartitionFactor multiplies k for the initial excessive
	// normalized-cut partitioning.
	overPartitionFactor = 3
	// maxAdjustPasses bounds the boundary-adjustment sweeps.
	maxAdjustPasses = 10
)

// Result of the baseline.
type Result struct {
	// Assign is the partition per node, dense in [0, K).
	Assign []int
	K      int
	// Moves counts boundary-adjustment relocations performed.
	Moves int
}

// Partition runs the three-step Ji–Geroliminis method on graph g with node
// densities f, producing k connected partitions.
func Partition(g *graph.Graph, f []float64, k int, opts Options) (*Result, error) {
	n := g.N()
	if len(f) != n {
		return nil, fmt.Errorf("jiger: %d features for %d nodes", len(f), n)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("jiger: k=%d out of range [1,%d]", k, n)
	}

	// Step 1: excessive partitioning with normalized cut.
	k0 := k * overPartitionFactor
	if k0 > n {
		k0 = n
	}
	initial, err := cut.NewSpectral(g, cut.MethodNCut, cut.Options{Seed: opts.Seed}).PartitionCtx(context.Background(), k0)
	if err != nil {
		return nil, err
	}
	assign := initial.Assign

	// Step 2: merge small partitions into the adjacent partition with the
	// closest mean density until k remain.
	assign, count, err := cut.RepairConnectivity(g, f, assign, k)
	if err != nil {
		return nil, err
	}

	// Step 3: boundary adjustment — move boundary segments to the
	// neighboring partition whose mean density matches them better.
	moves := 0
	for pass := 0; pass < maxAdjustPasses; pass++ {
		sum := make([]float64, count)
		size := make([]int, count)
		for v, l := range assign {
			sum[l] += f[v]
			size[l]++
		}
		changed := 0
		for v := 0; v < n; v++ {
			own := assign[v]
			if size[own] <= 1 {
				continue // never empty a partition
			}
			bestT, bestD := -1, math.Abs(f[v]-sum[own]/float64(size[own]))
			for _, e := range g.Neighbors(v) {
				t := assign[e.To]
				if t == own {
					continue
				}
				if d := math.Abs(f[v] - sum[t]/float64(size[t])); d < bestD {
					bestT, bestD = t, d
				}
			}
			if bestT < 0 {
				continue
			}
			sum[own] -= f[v]
			size[own]--
			sum[bestT] += f[v]
			size[bestT]++
			assign[v] = bestT
			changed++
		}
		moves += changed
		if changed == 0 {
			break
		}
	}

	// Moves can disconnect partitions; repair restores C.2 and the exact
	// partition count.
	assign, count, err = cut.RepairConnectivity(g, f, assign, k)
	if err != nil {
		return nil, err
	}
	return &Result{Assign: assign, K: count, Moves: moves}, nil
}
