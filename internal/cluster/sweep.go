package cluster

import (
	"context"
	"fmt"

	"roadpart/internal/kmeans"
)

// SweepOptions configures a κ-sweep.
type SweepOptions struct {
	// KappaMin and KappaMax bound the sweep (inclusive). Zero values
	// select 2 and min(25, n−1), matching the paper's practice of sweeping
	// small κ where MCG has already flattened.
	KappaMin, KappaMax int
	// SampleSize caps the number of data points the sweep clusters. The
	// paper applies repetitive clustering to a random sample "much smaller
	// than the actual dataset" to keep the sweep cheap. 0 selects
	// min(n, 2000). Sampling is deterministic in Seed.
	SampleSize int
	// Seed drives the sampling.
	Seed uint64
}

// SweepPoint records the measures at one κ.
type SweepPoint struct {
	Kappa int
	Stats Stats
}

// Sweep holds the result of a κ-sweep over a (possibly sampled) dataset.
type Sweep struct {
	Points []SweepPoint
	// SampleN is the number of points the sweep actually clustered.
	SampleN int
}

// SweepKappaCtx runs kmeans.OneD for each κ in [KappaMin, KappaMax] on a
// random sample of data and records the quality measures. It implements
// the shortlisting stage of Algorithm 1 (lines 3–9): the caller filters
// the resulting points with Shortlist and re-clusters the full dataset
// only for the surviving κ values. The sweep checks ctx before clustering
// each κ (one κ's k-means run is the cancellation grain) and returns
// ctx's error once it is done.
func SweepKappaCtx(ctx context.Context, data []float64, opts SweepOptions) (*Sweep, error) {
	n := len(data)
	if n < 2 {
		return nil, fmt.Errorf("cluster: SweepKappa needs at least 2 points, got %d", n)
	}
	lo := opts.KappaMin
	if lo < 2 {
		lo = 2
	}
	hi := opts.KappaMax
	if hi == 0 {
		hi = 25
	}
	if hi > n-1 {
		hi = n - 1
	}
	if lo > hi {
		lo = hi
	}

	sampleN := opts.SampleSize
	if sampleN <= 0 {
		sampleN = 2000
	}
	sample := data
	if sampleN < n {
		sample = sampleWithoutReplacement(data, sampleN, opts.Seed)
	} else {
		sampleN = n
	}

	// One clustering scratch, sorting the sample once, and one means
	// buffer serve the whole sweep; Measure reads them and retains
	// nothing, so per-κ allocations are limited to the recorded SweepPoint.
	sw := &Sweep{SampleN: sampleN}
	var ks kmeans.Scratch
	ks.Prepare(sample)
	meansBuf := make([]float64, hi)
	for kappa := lo; kappa <= hi; kappa++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: κ-sweep interrupted at κ=%d: %w", kappa, err)
		}
		res, err := ks.Cluster(kappa, 0)
		if err != nil {
			return nil, fmt.Errorf("cluster: κ=%d: %w", kappa, err)
		}
		means := meansBuf[:kappa]
		for c := 0; c < kappa; c++ {
			means[c] = res.Mean1(c)
		}
		st, err := Measure(sample, res.Assign, means, kappa)
		if err != nil {
			return nil, err
		}
		sw.Points = append(sw.Points, SweepPoint{Kappa: kappa, Stats: st})
	}
	return sw, nil
}

// Shortlist returns the κ values whose MCG is at least epsTheta, in
// ascending order — Algorithm 1's candidate set for supernode creation.
// If none qualify, the single best κ is returned so the pipeline always
// has a configuration to work with.
func (s *Sweep) Shortlist(epsTheta float64) []int {
	var out []int
	for _, p := range s.Points {
		if p.Stats.MCG >= epsTheta {
			out = append(out, p.Kappa)
		}
	}
	if len(out) == 0 && len(s.Points) > 0 {
		out = []int{s.OptimalKappa()}
	}
	return out
}

// OptimalKappa returns the κ with the maximum MCG (the global optimality
// maximum θ of Section 4.1). It returns 0 for an empty sweep.
func (s *Sweep) OptimalKappa() int {
	best, bestV := 0, 0.0
	for i, p := range s.Points {
		if i == 0 || p.Stats.MCG > bestV {
			best, bestV = p.Kappa, p.Stats.MCG
		}
	}
	return best
}

// LocalMaxima returns the κ values whose MCG exceeds both neighbors' —
// the local optimality maxima of Section 4.1's incremental test. Endpoint
// κ values qualify when they exceed their single neighbor.
func (s *Sweep) LocalMaxima() []int {
	var out []int
	for i, p := range s.Points {
		left := i == 0 || p.Stats.MCG > s.Points[i-1].Stats.MCG
		right := i == len(s.Points)-1 || p.Stats.MCG > s.Points[i+1].Stats.MCG
		if left && right {
			out = append(out, p.Kappa)
		}
	}
	return out
}

// ElbowKappa returns the smallest κ whose MCG is at least frac (e.g. 0.9)
// of the sweep's maximum MCG. The paper picks "the value of κ after which
// there is little increase in MCG" to keep the supernode count small; this
// captures that rule. It returns 0 for an empty sweep.
func (s *Sweep) ElbowKappa(frac float64) int {
	if len(s.Points) == 0 {
		return 0
	}
	maxV := s.Points[0].Stats.MCG
	for _, p := range s.Points {
		if p.Stats.MCG > maxV {
			maxV = p.Stats.MCG
		}
	}
	for _, p := range s.Points {
		if p.Stats.MCG >= frac*maxV {
			return p.Kappa
		}
	}
	return s.Points[len(s.Points)-1].Kappa
}

// FullKMeans clusters the complete dataset at a fixed κ with the
// deterministic 1-D solver and returns the assignment and cluster means —
// the full-data re-clustering step that follows shortlisting in
// Algorithm 1, also used standalone by the Figure 5 experiment.
func FullKMeans(data []float64, kappa int) ([]int, []float64, error) {
	res, err := kmeans.OneD(data, kappa, 0)
	if err != nil {
		return nil, nil, err
	}
	means := make([]float64, kappa)
	for c := 0; c < kappa; c++ {
		means[c] = res.Mean1(c)
	}
	return res.Assign, means, nil
}

// sampleWithoutReplacement draws m distinct elements of data, deterministic
// in seed, using a partial Fisher–Yates over an index permutation.
func sampleWithoutReplacement(data []float64, m int, seed uint64) []float64 {
	n := len(data)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := sm64{state: seed ^ 0xd1b54a32d192ed03}
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		j := i + rng.intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = data[idx[i]]
	}
	return out
}

type sm64 struct{ state uint64 }

func (s *sm64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *sm64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.next() % uint64(n))
}
