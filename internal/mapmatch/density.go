package mapmatch

import (
	"fmt"

	"roadpart/internal/roadnet"
	"roadpart/internal/traffic"
)

// Trajectory is one vehicle's ordered position samples — the same type
// the traffic simulator emits, so simulator output feeds in directly.
type Trajectory = traffic.Trajectory

// MatchTrajectory maps every sample of a trajectory to a segment,
// deriving the heading from consecutive samples so the correct direction
// of two-way roads is chosen. Unmatchable samples (farther than maxDist
// from any segment) get -1.
func (ix *Index) MatchTrajectory(traj Trajectory, maxDist float64) []int {
	out := make([]int, len(traj))
	for i, p := range traj {
		var hx, hy float64
		switch {
		case i+1 < len(traj):
			hx, hy = traj[i+1].X-p.X, traj[i+1].Y-p.Y
		case i > 0:
			hx, hy = p.X-traj[i-1].X, p.Y-traj[i-1].Y
		}
		m, ok := ix.Nearest(p.X, p.Y, hx, hy, maxDist)
		if !ok {
			out[i] = -1
			continue
		}
		out[i] = m.Segment
	}
	return out
}

// Densities reconstructs per-segment densities (vehicles/metre) at each
// timestamp from 0 to maxT from a fleet of trajectories: every matched
// sample contributes one vehicle to its segment at its timestamp. This is
// the paper's "self-designed program" step that turned MNTG trajectories
// into the M1–M3 density data.
func Densities(net *roadnet.Network, ix *Index, trajs []Trajectory, maxT int, maxDist float64) ([]traffic.Snapshot, error) {
	if maxT < 0 {
		return nil, fmt.Errorf("mapmatch: negative timestamp bound %d", maxT)
	}
	counts := make([][]int, maxT+1)
	for t := range counts {
		counts[t] = make([]int, len(net.Segments))
	}
	for _, traj := range trajs {
		matches := ix.MatchTrajectory(traj, maxDist)
		for i, seg := range matches {
			t := traj[i].T
			if seg < 0 || t < 0 || t > maxT {
				continue
			}
			counts[t][seg]++
		}
	}
	snaps := make([]traffic.Snapshot, maxT+1)
	for t := range snaps {
		snap := make(traffic.Snapshot, len(net.Segments))
		for i, c := range counts[t] {
			snap[i] = float64(c) / net.Segments[i].Length
		}
		snaps[t] = snap
	}
	return snaps, nil
}
