package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/gen"
	"roadpart/internal/metrics"
	"roadpart/internal/traffic"
)

// ScalingPoint is the framework cost at one network size.
type ScalingPoint struct {
	Segments int
	Module1  time.Duration
	Module2  time.Duration
	Module3  time.Duration
	Total    time.Duration
}

// ScalingData is the empirical scaling study behind Table 3's shape
// claims: per-module cost as the network grows, with the fitted growth
// exponent of the total (slope of log T vs log n).
type ScalingData struct {
	K        int
	Points   []ScalingPoint
	Exponent float64
}

// Scaling measures the framework's cost on generated cities of increasing
// size (ASG, fixed k), verifying that total time grows polynomially with
// a small exponent — the scalability argument of Sections 4 and 6.4.
func Scaling(k int, sizes ...int) (*ScalingData, error) {
	if k == 0 {
		k = 5
	}
	if len(sizes) == 0 {
		sizes = []int{1000, 2000, 4000, 8000, 16000}
	}
	data := &ScalingData{K: k}
	for _, nSeg := range sizes {
		net, err := gen.City(gen.CityConfig{
			TargetIntersections: nSeg * 5 / 9,
			TargetSegments:      nSeg,
			Seed:                uint64(nSeg),
		})
		if err != nil {
			return nil, err
		}
		snap, err := traffic.SyntheticField(net, traffic.FieldConfig{Hotspots: 6, Seed: 1})
		if err != nil {
			return nil, err
		}
		if err := traffic.ApplySnapshot(net, snap); err != nil {
			return nil, err
		}
		res, err := core.Partition(net, core.Config{K: k, Scheme: core.ASG, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("scaling at %d segments: %w", nSeg, err)
		}
		data.Points = append(data.Points, ScalingPoint{
			Segments: len(net.Segments),
			Module1:  res.Timing.Module1,
			Module2:  res.Timing.Module2,
			Module3:  res.Timing.Module3,
			Total:    res.Timing.Total,
		})
	}
	data.Exponent = fitExponent(data.Points)
	return data, nil
}

// fitExponent least-squares fits log T = a + b·log n and returns b.
func fitExponent(pts []ScalingPoint) float64 {
	if len(pts) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(pts))
	for _, p := range pts {
		x := math.Log(float64(p.Segments))
		y := math.Log(p.Total.Seconds() + 1e-9)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// Render prints the study.
func (d *ScalingData) Render(w io.Writer) {
	fmt.Fprintf(w, "Scaling study (ASG, k=%d): per-module cost vs network size\n", d.K)
	fmt.Fprintf(w, "%10s %12s %12s %12s %12s\n", "segments", "module1", "module2", "module3", "total")
	for _, p := range d.Points {
		fmt.Fprintf(w, "%10d %12s %12s %12s %12s\n",
			p.Segments, p.Module1.Round(time.Millisecond), p.Module2.Round(time.Millisecond),
			p.Module3.Round(time.Millisecond), p.Total.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "fitted growth exponent of total time: %.2f (log-log slope)\n", d.Exponent)
}

// AblationNoise measures partition robustness: the D1 densities are
// perturbed with multiplicative noise of increasing amplitude and the
// partition's agreement with the noise-free result (ARI) is reported.
// A method whose regions collapse under small measurement noise would be
// useless on real detector data.
func AblationNoise(opts Options, k int) (*AblationData, error) {
	ds, err := BuildDataset("D1", opts.Scale)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		k = 6
	}
	clean := ds.Net.Densities()
	p, err := core.NewPipeline(ds.Net, core.Config{Scheme: core.ASG, Seed: 1})
	if err != nil {
		return nil, err
	}
	kk := k
	if len(p.SG.Nodes) < kk {
		kk = len(p.SG.Nodes)
	}
	base, err := p.PartitionKCtx(context.Background(), kk)
	if err != nil {
		return nil, err
	}

	data := &AblationData{Title: fmt.Sprintf("Ablation: density noise robustness (D1, ASG, k=%d; ARI vs clean)", kk)}
	rng := gen.NewRNG(99)
	for _, amp := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
		noisy := make([]float64, len(clean))
		for i, v := range clean {
			noisy[i] = v * (1 + amp*(2*rng.Float64()-1))
			if noisy[i] < 0 {
				noisy[i] = 0
			}
		}
		if err := ds.Net.SetDensities(noisy); err != nil {
			return nil, err
		}
		t0 := time.Now()
		np, err := core.NewPipeline(ds.Net, core.Config{Scheme: core.ASG, Seed: 1})
		if err != nil {
			return nil, err
		}
		nk := kk
		if len(np.SG.Nodes) < nk {
			nk = len(np.SG.Nodes)
		}
		res, err := np.PartitionKCtx(context.Background(), nk)
		if err != nil {
			return nil, err
		}
		ari, err := metrics.ARI(base.Assign, res.Assign)
		if err != nil {
			return nil, err
		}
		data.Rows = append(data.Rows, AblationRow{
			Config:  fmt.Sprintf("noise ±%.0f%%", amp*100),
			ANS:     res.Report.ANS,
			GDBI:    res.Report.GDBI,
			Extra:   fmt.Sprintf("ARI=%.3f K=%d", ari, res.K),
			Elapsed: time.Since(t0),
		})
	}
	if err := ds.Net.SetDensities(clean); err != nil {
		return nil, err
	}
	return data, nil
}
