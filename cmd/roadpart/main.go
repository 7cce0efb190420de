// Command roadpart partitions an urban road network by traffic congestion.
//
// Input is either a generated preset (-preset D1|M1|M2|M3, traffic
// included) or a network JSON file (-net) produced by cmd/gennet or by any
// tool emitting the roadnet schema, optionally with a separate density CSV
// (-densities).
//
// Usage:
//
//	roadpart -preset D1 -k 6 -scheme ASG
//	roadpart -net city.json -densities now.csv -k 8 -scheme AG -out parts.csv
//	roadpart -preset M1 -autok -kmax 15
//	roadpart -preset D1 -k 6 -timings   # per-stage breakdown (Table 3 layout)
//	roadpart -preset D1 -k 6 -cache-dir /var/cache/roadpart   # reuse results
//	roadpart -watch http://localhost:8080   # follow a daemon's repartition stream
//	roadpart -preset D1 -k 6 -submit http://localhost:8080 -wait   # durable async job
//	roadpart -poll http://localhost:8080/v1/jobs/j000001-8f... -wait
//
// -submit hands the work to a roadpartd daemon's async job queue
// (POST /v1/jobs) and prints the job's poll URL; -wait polls until the
// job is terminal and prints the result. -watch reconnects with capped
// exponential backoff when the stream drops, deduplicating the replayed
// event by sequence number (see docs/API.md § Async jobs).
//
// -cache-dir reads and writes roadpart-cache/v1 snapshot files — the same
// artifacts roadpartd's -cache-dir uses — so a result computed by either
// binary is a cache hit for the other (see docs/FORMATS.md).
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"roadpart/internal/core"
	"roadpart/internal/experiments"
	"roadpart/internal/obs"
	"roadpart/internal/render"
	"roadpart/internal/resultcache"
	"roadpart/internal/roadnet"
	"roadpart/internal/server"
)

func main() {
	var (
		netPath  = flag.String("net", "", "network JSON file")
		densPath = flag.String("densities", "", "density CSV file (segment_id,density)")
		preset   = flag.String("preset", "", "generate a preset dataset with traffic: D1, M1, M2, M3")
		schemeN  = flag.String("scheme", "ASG", "partitioning scheme: AG, NG, ASG, NSG")
		k        = flag.Int("k", 6, "number of partitions")
		autoK    = flag.Bool("autok", false, "select k by the ANS minimum over [2, kmax]")
		kmax     = flag.Int("kmax", 12, "upper bound for -autok")
		stabEps  = flag.Float64("stability", 0, "supernode stability threshold in [0,1] (0 = off)")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "worker goroutines for parallel stages, the Lanczos reorthogonalization and Ritz assembly included (0 = GOMAXPROCS, 1 = serial; same result either way)")
		mlevel   = flag.String("multilevel", "auto", "multilevel coarsening path: auto (engage above the node threshold), on, off (see docs/SCALING.md)")
		timings  = flag.Bool("timings", false, "print the per-stage wall-clock breakdown (paper Table 3 layout)")
		outPath  = flag.String("out", "", "write segment,partition CSV here")
		svgPath  = flag.String("svg", "", "write an SVG map of the partitions here")
		geoPath  = flag.String("geojson", "", "write a GeoJSON FeatureCollection with partition properties here")
		cacheDir = flag.String("cache-dir", "", "read/write roadpart-cache/v1 result snapshots here (shared with roadpartd -cache-dir)")
		watchURL = flag.String("watch", "", "subscribe to a roadpartd density stream (e.g. http://localhost:8080) and print repartition events until interrupted; all partitioning flags are ignored")
		watchTry = flag.Int("watch-retries", 0, "give up -watch after this many consecutive failed reconnect attempts (0 = retry forever)")
		jobBase  = flag.String("submit", "", "submit the partition (or, with -autok, the k sweep) to a roadpartd daemon (e.g. http://localhost:8080) as a durable async job instead of computing locally")
		jobPoll  = flag.String("poll", "", "poll an async job by URL (as printed by -submit) and print its state; other flags are ignored")
		jobWait  = flag.Bool("wait", false, "with -submit or -poll, keep polling until the job is terminal, then fetch and print its result")
	)
	flag.Parse()

	if *watchURL != "" {
		if err := watch(*watchURL, *watchTry, watchBackoff, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *jobPoll != "" {
		if err := pollJob(*jobPoll, *jobWait); err != nil {
			fatal(err)
		}
		return
	}

	net, err := loadNetwork(*netPath, *densPath, *preset)
	if err != nil {
		fatal(err)
	}
	scheme, err := core.ParseScheme(*schemeN)
	if err != nil {
		fatal(err)
	}
	multilevel, err := core.ParseMultilevelMode(*mlevel)
	if err != nil {
		fatal(err)
	}
	if *jobBase != "" {
		if err := submitJob(*jobBase, jobRequest(net, *schemeN, *k, *kmax, *autoK, *stabEps, *seed, *workers, *mlevel), *jobWait); err != nil {
			fatal(err)
		}
		return
	}
	var store *resultcache.Store
	if *cacheDir != "" {
		if store, err = resultcache.OpenStore(*cacheDir); err != nil {
			fatal(err)
		}
	}
	cfg := core.Config{K: *k, Scheme: scheme, StabilityEps: *stabEps, Seed: *seed, Workers: *workers, Multilevel: multilevel}

	p, err := core.NewPipeline(net, cfg)
	if err != nil {
		fatal(err)
	}
	if *autoK {
		best, err := bestK(store, p, net, cfg, *kmax)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("selected k=%d by ANS minimum\n", best)
		cfg.K = best
	}
	resp, cacheState, err := partition(store, p, net, cfg)
	if err != nil {
		fatal(err)
	}

	st := net.Stats()
	fmt.Printf("network: %d intersections, %d segments\n", st.Intersections, st.Segments)
	fmt.Printf("scheme:  %v (k=%d, k'=%d)\n", scheme, resp.K, resp.KPrime)
	if store != nil {
		fmt.Printf("cache:   %s\n", cacheState)
	}
	fmt.Printf("quality: inter=%.4f intra=%.4f GDBI=%.4f ANS=%.4f\n",
		resp.Report.Inter, resp.Report.Intra, resp.Report.GDBI, resp.Report.ANS)
	fmt.Printf("timing:  module1=%v module2=%v module3=%v total=%v\n",
		msDur(resp.Timing.Module1Ms), msDur(resp.Timing.Module2Ms),
		msDur(resp.Timing.Module3Ms), msDur(resp.Timing.TotalMs))

	sizes := make(map[int]int)
	for _, p := range resp.Assign {
		sizes[p]++
	}
	fmt.Printf("partition sizes:")
	for i := 0; i < resp.K; i++ {
		fmt.Printf(" %d", sizes[i])
	}
	fmt.Println()

	if *timings {
		fmt.Println()
		if err := obs.WriteStageTable(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *outPath != "" {
		if err := writeAssignment(*outPath, resp.Assign); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
	if *svgPath != "" {
		if err := writeSVG(*svgPath, net, resp); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if *geoPath != "" {
		f, err := os.Create(*geoPath)
		if err != nil {
			fatal(err)
		}
		if err := net.WriteGeoJSON(f, resp.Assign); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *geoPath)
	}
}

// partition produces the partition result as a server.PartitionResponse —
// the same artifact POST /v1/partition serves — so that a -cache-dir shared
// with roadpartd lets either binary reuse the other's work. The returned
// state is "hit", "miss" or "off".
func partition(store *resultcache.Store, p *core.Pipeline, net *roadnet.Network, cfg core.Config) (*server.PartitionResponse, string, error) {
	key := resultcache.PartitionKey(net, cfg)
	if store != nil {
		if body, ok, err := store.Read(key); err == nil && ok {
			var resp server.PartitionResponse
			if json.Unmarshal(body, &resp) == nil {
				return &resp, "hit", nil
			}
		}
	}
	t0 := time.Now()
	res, err := p.PartitionKCtx(context.Background(), cfg.K)
	if err != nil {
		return nil, "", err
	}
	resp := server.NewPartitionResponse(res, time.Since(t0))
	if store == nil {
		return &resp, "off", nil
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, "", err
	}
	if err := store.Write(key, body); err != nil {
		fmt.Fprintf(os.Stderr, "roadpart: cache write: %v\n", err)
	}
	return &resp, "miss", nil
}

// bestK selects k by the ANS minimum over [2, kmax], consulting and
// updating the shared sweep snapshot when a store is configured.
func bestK(store *resultcache.Store, p *core.Pipeline, net *roadnet.Network, cfg core.Config, kmax int) (int, error) {
	key := resultcache.SweepKey(net, cfg, 2, kmax)
	if store != nil {
		if body, ok, err := store.Read(key); err == nil && ok {
			var resp server.SweepResponse
			if json.Unmarshal(body, &resp) == nil && resp.BestK >= 2 {
				return resp.BestK, nil
			}
		}
	}
	best, sweep, err := p.BestKByANS(2, kmax)
	if err != nil {
		return 0, err
	}
	if store != nil {
		if body, err := json.Marshal(server.NewSweepResponse(best, sweep)); err == nil {
			if err := store.Write(key, body); err != nil {
				fmt.Fprintf(os.Stderr, "roadpart: cache write: %v\n", err)
			}
		}
	}
	return best, nil
}

// msDur renders a millisecond count the way a time.Duration prints.
func msDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Microsecond)
}

func writeSVG(path string, net *roadnet.Network, resp *server.PartitionResponse) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("k=%d ANS=%.4f", resp.K, resp.Report.ANS)
	if err := render.Partitions(f, net, resp.Assign, render.Options{Title: title}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadNetwork(netPath, densPath, preset string) (*roadnet.Network, error) {
	switch {
	case preset != "" && netPath != "":
		return nil, fmt.Errorf("use either -preset or -net, not both")
	case preset != "":
		ds, err := experiments.BuildDataset(preset, experiments.ScaleFull)
		if err != nil {
			return nil, err
		}
		return ds.Net, nil
	case netPath != "":
		var net *roadnet.Network
		var err error
		if strings.HasSuffix(netPath, ".geojson") {
			f, ferr := os.Open(netPath)
			if ferr != nil {
				return nil, ferr
			}
			net, err = roadnet.ReadGeoJSON(f, 1)
			f.Close()
		} else {
			net, err = roadnet.LoadJSON(netPath)
		}
		if err != nil {
			return nil, err
		}
		if densPath != "" {
			f, err := os.Open(densPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if err := net.ReadDensitiesCSV(f); err != nil {
				return nil, err
			}
		}
		return net, nil
	default:
		return nil, fmt.Errorf("provide -net FILE or -preset NAME (see -h)")
	}
}

func writeAssignment(path string, assign []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"segment_id", "partition"}); err != nil {
		f.Close()
		return err
	}
	for i, p := range assign {
		if err := w.Write([]string{strconv.Itoa(i), strconv.Itoa(p)}); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roadpart:", err)
	os.Exit(1)
}
