package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"roadpart"
	"roadpart/internal/graph"
	"roadpart/internal/metrics"
	"roadpart/internal/server"
)

// outcome is the part of a response that must not depend on timing: the
// assignment, the partition counts and the quality reports. For a sweep,
// K is best_k and Reports holds every point; for a stream step, the
// frame's.
type outcome struct {
	Assign  []int            `json:"assign,omitempty"`
	K       int              `json:"k"`
	KPrime  int              `json:"k_prime,omitempty"`
	Reports []metrics.Report `json:"reports"`
	// ANS is the response's ANS: the partition's, the best_k point's or
	// the frame's.
	ANS float64 `json:"-"`
}

// check validates every response after the timed phase and returns each
// one's outcome and the number of responses that failed or failed a
// check. Partitions must be valid at the requested k, sweeps must pick
// the ANS minimum inside their range, and stream frames must equal a
// direct temporal.Tracker replay of the same deltas.
func (w *workload) check(res []response) ([]outcome, int) {
	outs := make([]outcome, len(res))
	var replayed []outcome
	if w.name == "stream" {
		var err error
		if replayed, err = w.replayStream(nil, nil); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stream replay:", err)
			return outs, len(res)
		}
	}
	type key struct {
		body string
		req  *byte
	}
	memo := make(map[key]error)
	failed := 0
	for i, r := range res {
		req := w.requests[i]
		var err error
		if err = r.failure(); err == nil {
			k := key{string(r.body), &req.body[0]}
			var seen bool
			if err, seen = memo[k]; !seen {
				err = checkResponse(w.graph, req, r.body)
				memo[k] = err
			}
		}
		if err == nil {
			outs[i], _ = parseOutcome(req.kind, r.body) // checked above
			if replayed != nil && !sameOutcome(outs[i], replayed[i]) {
				err = fmt.Errorf("frame differs from the tracker replay")
			}
		}
		if err != nil {
			outs[i] = outcome{}
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s): %v\n", i, req.path(), err)
		}
	}
	return outs, failed
}

// checkResponse checks one 200 response body against its request.
func checkResponse(g *graph.Graph, req request, body []byte) error {
	o, err := parseOutcome(req.kind, body)
	if err != nil {
		return err
	}
	for _, rep := range o.Reports {
		for _, v := range []float64{rep.Inter, rep.Intra, rep.GDBI, rep.ANS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("report %+v is not finite", rep)
			}
		}
	}
	switch req.kind {
	case partitionReq:
		if o.K != req.k || o.Reports[0].K != req.k {
			return fmt.Errorf("k = %d (report %d), requested %d", o.K, o.Reports[0].K, req.k)
		}
		if err := roadpart.ValidatePartition(g, o.Assign); err != nil {
			return err
		}
		if labels := maxLabel(o.Assign) + 1; labels != req.k {
			return fmt.Errorf("%d labels, requested k = %d", labels, req.k)
		}
	case sweepReq:
		if o.K < req.kMin || o.K > req.kMax {
			return fmt.Errorf("best_k %d outside [%d,%d]", o.K, req.kMin, req.kMax)
		}
		if len(o.Reports) == 0 || len(o.Reports) > req.kMax-req.kMin+1 {
			return fmt.Errorf("%d sweep points for [%d,%d]", len(o.Reports), req.kMin, req.kMax)
		}
		for _, rep := range o.Reports {
			if rep.ANS < o.ANS {
				return fmt.Errorf("best_k %d has ANS %v, k=%d has lower %v", o.K, o.ANS, rep.K, rep.ANS)
			}
		}
	}
	return nil
}

// parseOutcome decodes a response body into its outcome.
func parseOutcome(k kind, body []byte) (outcome, error) {
	switch k {
	case partitionReq:
		var r server.PartitionResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return outcome{}, fmt.Errorf("decoding partition response: %w", err)
		}
		return outcome{Assign: r.Assign, K: r.K, KPrime: r.KPrime, Reports: []metrics.Report{r.Report}, ANS: r.Report.ANS}, nil
	case sweepReq:
		var r server.SweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return outcome{}, fmt.Errorf("decoding sweep response: %w", err)
		}
		o := outcome{K: r.BestK, ANS: math.NaN()}
		for i, pt := range r.Points {
			if i > 0 && pt.K != r.Points[i-1].K+1 {
				return outcome{}, fmt.Errorf("sweep point k=%d follows k=%d", pt.K, r.Points[i-1].K)
			}
			o.Reports = append(o.Reports, pt.Report)
			if pt.K == r.BestK {
				o.ANS = pt.Report.ANS
			}
		}
		if math.IsNaN(o.ANS) {
			return outcome{}, fmt.Errorf("best_k %d is not a sweep point", r.BestK)
		}
		return o, nil
	default:
		var ev server.RepartitionEvent
		if err := json.Unmarshal(body, &ev); err != nil {
			return outcome{}, fmt.Errorf("decoding repartition event: %w", err)
		}
		f := ev.Frame
		return outcome{Assign: f.Assign, K: f.K, Reports: []metrics.Report{f.Report}, ANS: f.Report.ANS}, nil
	}
}

func sameOutcome(a, b outcome) bool {
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
}

func maxLabel(assign []int) int {
	m := -1
	for _, a := range assign {
		m = max(m, a)
	}
	return m
}
