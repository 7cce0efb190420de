package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"roadpart/internal/core"
	"roadpart/internal/jobs"
	"roadpart/internal/resultcache"
	"roadpart/internal/roadnet"
)

// This file is the HTTP face of internal/jobs: POST /v1/jobs accepts a
// partition or sweep request as a durable async job (202 + id), the
// /v1/jobs/{id} resource exposes the job state machine (GET polls,
// DELETE cancels), and /v1/jobs/{id}/result serves the finished body —
// byte-identical to what the synchronous endpoint would have written,
// because both paths serialize once and share the content-addressed
// result cache.

// testJobHooks lets in-package tests inject jobs faults through the
// normal construction path (the watchHeartbeat pattern); always nil in
// production — fault injection is deliberately absent from Config.
var testJobHooks *jobs.Hooks

// JobSubmitRequest is the body of POST /v1/jobs: the op selector plus
// exactly the matching synchronous request document. A job's
// timeout_ms is ignored — job attempts run under the server's
// JobAttemptTimeout instead, since the submitting connection is gone
// long before the deadline matters.
type JobSubmitRequest struct {
	// Op is "partition" or "sweep".
	Op        string            `json:"op"`
	Partition *PartitionRequest `json:"partition,omitempty"`
	Sweep     *SweepRequest     `json:"sweep,omitempty"`
}

// JobSubmitResponse is the 202 body: the accepted (or deduplicated)
// job's initial view. The Location header carries the poll URL.
type JobSubmitResponse struct {
	Job jobs.View `json:"job"`
	// Deduplicated reports that an active job with the same content
	// fingerprint already covers this work and was returned instead of
	// queueing a twin.
	Deduplicated bool `json:"deduplicated,omitempty"`
}

// JobStatusResponse is the body of GET/DELETE /v1/jobs/{id}.
type JobStatusResponse struct {
	Job jobs.View `json:"job"`
	// ResultURL is set once the job is done.
	ResultURL string `json:"result_url,omitempty"`
}

// handleJobSubmit serves POST /v1/jobs.
func (s *service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobSubmitRequest
	raw, ok := readRequest(w, r, &req)
	if !ok {
		return
	}
	defer releaseBody(raw)
	spec, err := s.jobSpec(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// A job is submitted to its fingerprint's owner so the job state
	// machine and the cached result live on the same shard; the minted
	// id embeds the fingerprint, which is how later polls find it
	// (jobs.FingerprintFromID). Unreachable owner → accept locally.
	if s.forwardKeyed(w, r, spec.Key.Sum, raw) {
		return
	}
	s.markShard(w)
	v, deduped, err := s.jobs.Submit(spec)
	if err != nil {
		s.writeJobSubmitErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+v.ID)
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{Job: v, Deduplicated: deduped})
}

// jobSpec validates a submission exactly as the synchronous handler
// would — the document goes through the same resolve — so a job can
// never fail later on input the API should have rejected at submit
// time, and its fingerprint matches the one the synchronous endpoint
// computes for the same document. The payload is the resolved document
// itself, re-marshaled.
func (s *service) jobSpec(req *JobSubmitRequest) (jobs.Spec, error) {
	var doc interface{}
	var have, stray bool
	switch req.Op {
	case resultcache.OpPartition:
		doc, have, stray = req.Partition, req.Partition != nil, req.Sweep != nil
	case resultcache.OpSweep:
		doc, have, stray = req.Sweep, req.Sweep != nil, req.Partition != nil
	default:
		return jobs.Spec{}, fmt.Errorf("unknown op %q (want %q or %q)", req.Op, resultcache.OpPartition, resultcache.OpSweep)
	}
	if !have {
		return jobs.Spec{}, fmt.Errorf("op %q needs a %s document", req.Op, req.Op)
	}
	if stray {
		return jobs.Spec{}, fmt.Errorf("op %q takes only a %s document, but the submission carries both", req.Op, req.Op)
	}
	k, err := s.resolve(doc)
	if err != nil {
		return jobs.Spec{}, err
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		return jobs.Spec{}, err
	}
	return jobs.Spec{Op: req.Op, Key: k.key, Tag: k.tag, Payload: payload}, nil
}

// partitionConfig resolves and validates a partition document into its
// core config. A k below 1 or above the network's segment count is
// rejected here, before any admission slot or mining is spent on it; a k
// above what the mined supergraph supports is only known after mining
// and fails in the pipeline.
func (s *service) partitionConfig(p *PartitionRequest) (core.Config, error) {
	cfg, err := s.baseConfig(p.Network, p.Scheme, p.Seed, p.Workers, p.Multilevel)
	if err != nil {
		return cfg, err
	}
	if n := len(p.Network.Segments); p.K < 1 || p.K > n {
		return cfg, fmt.Errorf("bad k=%d: want 1 <= k <= %d, the network's segment count", p.K, n)
	}
	cfg.K = p.K
	cfg.StabilityEps = p.StabilityEps
	cfg.Refine = p.Refine
	return cfg, nil
}

// sweepConfig resolves and validates a sweep document, applying the
// k-range defaults that make up its cache identity. A range that is
// empty or starts below 1 after defaulting is rejected here, before any
// admission slot or mining is spent on it; a range the network cannot
// reach (k_min above the pipeline's MaxK) is only known after mining and
// fails in the sweep.
func (s *service) sweepConfig(sw *SweepRequest) (core.Config, int, int, error) {
	cfg, err := s.baseConfig(sw.Network, sw.Scheme, sw.Seed, sw.Workers, sw.Multilevel)
	if err != nil {
		return cfg, 0, 0, err
	}
	kMin, kMax := sw.KMin, sw.KMax
	if kMin == 0 {
		kMin = 2
	}
	if kMax == 0 {
		kMax = 10
	}
	if kMin < 1 || kMax < kMin {
		return cfg, 0, 0, fmt.Errorf("bad k range [%d,%d] after defaults: want 1 <= k_min <= k_max", kMin, kMax)
	}
	return cfg, kMin, kMax, nil
}

// baseConfig resolves the fields partition and sweep documents share —
// scheme, seed, workers and multilevel mode, each against its server
// default — and validates the network, in that order.
func (s *service) baseConfig(net *roadnet.Network, scheme string, seed uint64, workers int, multilevel string) (core.Config, error) {
	sc, err := parseScheme(scheme)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Scheme: sc, Seed: seed, Workers: s.workers(workers)}
	if cfg.Multilevel, err = s.multilevel(multilevel); err != nil {
		return cfg, err
	}
	if net == nil {
		return cfg, fmt.Errorf("missing network")
	}
	return cfg, net.Validate()
}

// multilevel resolves a request's multilevel field against the server
// default: the request wins when set, otherwise Config.Multilevel, and
// both spellings go through core.ParseMultilevelMode.
func (s *service) multilevel(req string) (core.MultilevelMode, error) {
	v := req
	if v == "" {
		v = s.cfg.Multilevel
	}
	return core.ParseMultilevelMode(v)
}

// runJob is the jobs.Runner: it runs the journaled document through the
// same run as the synchronous handler, and so through the same
// content-addressed cache. That shared path is what makes a job
// idempotent per fingerprint — a re-run after a crash that lost only
// the trailing "done" record finds the stored body and never computes
// to completion twice.
func (s *service) runJob(ctx context.Context, spec jobs.Spec) ([]byte, error) {
	k, err := s.resolveJob(spec)
	if err != nil {
		return nil, err
	}
	body, _, err := s.run(ctx, k)
	return body, err
}

// resolveJob rebuilds a (possibly replayed) job's keyed request from its
// payload. The result caches under the journaled key and tag, exactly
// as submitted. Decode failures are terminal: the payload was validated
// at submit time, so damage here means journal corruption, not user
// error.
func (s *service) resolveJob(spec jobs.Spec) (keyed, error) {
	doc := newDoc(spec.Op)
	if doc == nil {
		return keyed{}, fmt.Errorf("journaled job has unknown op %q", spec.Op)
	}
	if err := decodeRequest(spec.Payload, doc); err != nil {
		return keyed{}, fmt.Errorf("corrupt %s job payload: %w", spec.Op, err)
	}
	k, err := s.resolve(doc)
	if err != nil {
		return keyed{}, fmt.Errorf("replayed %s job no longer valid: %w", spec.Op, err)
	}
	k.key, k.tag = spec.Key, spec.Tag
	return k, nil
}

// writeJobSubmitErr maps Submit failures: a full queue is 429, a
// draining daemon 503 — both with a Retry-After derived from the
// actual backlog and observed compute latency, not a constant.
func (s *service) writeJobSubmitErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrDraining):
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusInternalServerError {
		secs := retryAfterSecs(s.jobs.Active(), s.jobs.Workers(), s.lat.seconds(), s.queueWait().Seconds())
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeErr(w, status, err)
}

// handleJobItem serves the /v1/jobs/{id} resource and its /result
// sub-resource.
func (s *service) handleJobItem(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id != "" && (sub == "" || sub == "result") && s.forwardJobItem(w, r, id) {
		return
	}
	s.markShard(w)
	switch {
	case id == "":
		writeErr(w, http.StatusNotFound, fmt.Errorf("missing job id"))
	case sub == "result":
		if !allow(w, r, http.MethodGet) {
			return
		}
		s.serveJobResult(w, r, id)
	case sub != "":
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job sub-resource %q", sub))
	case r.Method == http.MethodGet:
		v, err := s.jobs.Get(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(v))
	case r.Method == http.MethodDelete:
		v, err := s.jobs.Cancel(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(v))
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or DELETE"))
	}
}

func jobStatus(v jobs.View) JobStatusResponse {
	resp := JobStatusResponse{Job: v}
	if v.State == jobs.StateDone {
		resp.ResultURL = "/v1/jobs/" + v.ID + "/result"
	}
	return resp
}

// serveJobResult writes a done job's body with the synchronous
// endpoint's exact framing. The body comes from the manager's in-memory
// copy or — for a job completed before a restart — from the job's
// document served the way the synchronous endpoint serves it: a cache
// hit when the entry survived, otherwise a recompute under admission
// control and the request's deadline, byte-identical by construction.
func (s *service) serveJobResult(w http.ResponseWriter, r *http.Request, id string) {
	v, err := s.jobs.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if v.State != jobs.StateDone {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", id, v.State))
		return
	}
	if body, ok := s.jobs.Result(id); ok {
		writeJSONBody(w, body)
		return
	}
	spec, ok := s.jobs.Spec(id)
	if !ok {
		writeErr(w, http.StatusNotFound, jobs.ErrUnknownJob)
		return
	}
	k, err := s.resolveJob(spec)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.serve(w, r, k)
}
