// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all -scale small
//	experiments -exp fig4 -scale full -runs 11
//	experiments -exp table3 -scale full
//
// At -scale full the datasets match Table 1 exactly (79,487 segments for
// M3) and a complete run takes minutes; -scale small shrinks the large
// networks ~16× for second-scale smoke runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"roadpart/internal/experiments"
	"roadpart/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, table1, table2, table3, fig4, fig5, fig6, fig7, ablations")
		scale   = flag.String("scale", "small", "dataset scale: small or full")
		runs    = flag.Int("runs", 0, "seeded runs per configuration (0 = experiment default)")
		kmin    = flag.Int("kmin", 0, "minimum k (0 = paper default)")
		kmax    = flag.Int("kmax", 0, "maximum k (0 = paper default)")
		csvTo   = flag.String("csv", "", "directory to write plot-ready CSV series into (figures only)")
		workers = flag.Int("workers", 0, "worker goroutines for parallel stages; the pipelines under a per-seed, per-scheme or per-dataset fan-out run serial, the Lanczos solve included (0 = GOMAXPROCS; medians are identical for any value)")
		timings = flag.Bool("timings", false, "print the per-stage wall-clock breakdown after all experiments")
	)
	flag.Parse()
	if *csvTo != "" {
		if err := os.MkdirAll(*csvTo, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	opts := experiments.Options{Runs: *runs, KMin: *kmin, KMax: *kmax, Workers: *workers}
	switch *scale {
	case "small":
		opts.Scale = experiments.ScaleSmall
	case "full":
		opts.Scale = experiments.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or full)\n", *scale)
		os.Exit(2)
	}

	run := func(name string) error {
		w := os.Stdout
		switch name {
		case "table1":
			d, err := experiments.Table1(opts)
			if err != nil {
				return err
			}
			d.Render(w)
		case "table2":
			d, err := experiments.Table2(opts)
			if err != nil {
				return err
			}
			d.Render(w)
		case "table3":
			d, err := experiments.Table3(opts, 0)
			if err != nil {
				return err
			}
			d.Render(w)
		case "fig4":
			d, err := experiments.Fig4(opts)
			if err != nil {
				return err
			}
			d.Render(w)
			if err := writeCSV(*csvTo, "fig4.csv", d.WriteCSV); err != nil {
				return err
			}
		case "fig5":
			d, err := experiments.Fig5(opts)
			if err != nil {
				return err
			}
			d.Render(w)
			if err := writeCSV(*csvTo, "fig5.csv", d.WriteCSV); err != nil {
				return err
			}
		case "fig6":
			d, err := experiments.Fig6(opts)
			if err != nil {
				return err
			}
			d.Render(w)
			if err := writeCSV(*csvTo, "fig6.csv", d.WriteCSV); err != nil {
				return err
			}
		case "fig7":
			d, err := experiments.Fig7(opts)
			if err != nil {
				return err
			}
			d.Render(w)
			if err := writeCSV(*csvTo, "fig7.csv", d.WriteCSV); err != nil {
				return err
			}
		case "ablations":
			for _, f := range []func() (*experiments.AblationData, error){
				func() (*experiments.AblationData, error) { return experiments.AblationStability(opts, 0) },
				func() (*experiments.AblationData, error) { return experiments.AblationWeighting(opts, 0) },
				func() (*experiments.AblationData, error) { return experiments.AblationReduction(opts, 0) },
				func() (*experiments.AblationData, error) { return experiments.AblationRefine(opts, 0) },
				func() (*experiments.AblationData, error) { return experiments.AblationEigen(opts, 0) },
				func() (*experiments.AblationData, error) { return experiments.AblationNoise(opts, 0) },
				func() (*experiments.AblationData, error) { return experiments.AblationKMeansInit(opts, 0) },
			} {
				d, err := f()
				if err != nil {
					return err
				}
				d.Render(w)
			}
		case "scaling":
			sizes := []int{1000, 2000, 4000, 8000}
			if opts.Scale == experiments.ScaleFull {
				sizes = append(sizes, 16000, 32000)
			}
			d, err := experiments.Scaling(0, sizes...)
			if err != nil {
				return err
			}
			d.Render(w)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintln(w)
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig4", "table2", "fig5", "fig6", "fig7", "table3", "ablations", "scaling"}
	}
	for _, name := range names {
		fmt.Printf("=== %s (scale=%s) ===\n", strings.ToUpper(name), *scale)
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *timings {
		fmt.Println("=== STAGE TIMINGS (cumulative, this process) ===")
		if err := obs.WriteStageTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeCSV writes one experiment's CSV into dir; a no-op when dir is
// empty.
func writeCSV(dir, name string, emit func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
