package jobs

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"sync"
	"time"

	"roadpart/internal/obs"
	"roadpart/internal/resultcache"
)

// Config tunes a Manager. The zero value of every field selects the
// documented default, so Config{} is a working (memory-only) setup.
type Config struct {
	// Workers bounds concurrently executing attempts. 0 selects 2.
	// Each attempt's compute then takes a slot of the daemon's HTTP
	// admission controller, like a synchronous request, so a saturated
	// server fails the attempt and the retry backoff spreads its return
	// (docs/ARCHITECTURE.md § Jobs dataflow).
	Workers int
	// QueueDepth bounds active (non-terminal) jobs; submissions beyond
	// it fail with ErrQueueFull (HTTP 429). 0 selects 64.
	QueueDepth int
	// MaxAttempts is the per-job attempt budget before the dead-letter
	// state. 0 selects 3.
	MaxAttempts int
	// AttemptTimeout bounds each attempt's compute; an expired attempt
	// counts as a failed one (retryable). 0 imposes no deadline.
	AttemptTimeout time.Duration
	// Retry is the backoff policy between attempts.
	Retry Backoff
	// Dir is the journal directory. Empty runs memory-only: jobs work
	// but do not survive a restart (the daemon logs this at start).
	Dir string
	// NoSync skips the per-record fsync. Throughput over durability —
	// a power loss can lose the last records; tests use it for speed.
	NoSync bool
	// Retain bounds terminal (done/failed/cancelled) jobs kept
	// queryable; the oldest are evicted first. 0 selects 256.
	Retain int
	// Hooks inject faults for tests; nil in production.
	Hooks *Hooks
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Retain <= 0 {
		c.Retain = 256
	}
	return c
}

// Manager metrics (see docs/API.md § Metrics).
var (
	transitionsHelp = "Job state-machine transitions, by state entered."
	jobsWaiting     = obs.Default().Gauge("roadpart_jobs_queue_depth",
		"Jobs waiting to run (queued or in retry backoff).")
	jobsRunning = obs.Default().Gauge("roadpart_jobs_running",
		"Job attempts executing right now.")
	jobsRetries = obs.Default().Counter("roadpart_jobs_retries_total",
		"Failed attempts that were rescheduled with backoff.")
	jobsDeduped = obs.Default().Counter("roadpart_jobs_deduplicated_total",
		"Submissions answered with an existing active job of the same fingerprint.")
	attemptTimer = obs.Default().Timer("roadpart_job_attempt_duration_seconds",
		"Wall-clock duration of job attempts (all outcomes).")
)

func countTransition(st State) {
	obs.Default().Counter("roadpart_jobs_transitions_total", transitionsHelp, "state", string(st)).Inc()
}

// job is the manager-internal record of one submission.
type job struct {
	id          string
	seq         int
	spec        Spec
	maxAttempts int

	state     State
	attempt   int // attempts started so far
	err       string
	result    []byte // body of a completion this process ran (cache holds the durable copy)
	submitted time.Time
	updated   time.Time

	retryAt         time.Time
	retryTimer      *time.Timer
	cancelAttempt   context.CancelFunc
	cancelRequested bool
	done            chan struct{} // closed on terminal transition
}

func (jb *job) view() View {
	v := View{
		ID:          jb.id,
		Op:          jb.spec.Op,
		Key:         jb.spec.Key.String(),
		State:       jb.state,
		Attempt:     jb.attempt,
		MaxAttempts: jb.maxAttempts,
		Error:       jb.err,
		SubmittedAt: jb.submitted,
		UpdatedAt:   jb.updated,
	}
	if jb.state == StateRetrying {
		if ms := time.Until(jb.retryAt).Milliseconds(); ms > 0 {
			v.RetryInMs = ms
		}
	}
	return v
}

// Manager owns the queue, the worker pool, the retry timers and the
// journal. All methods are safe for concurrent use.
type Manager struct {
	cfg    Config
	runner Runner
	j      *journal

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for terminal-retention trimming
	byKey    map[resultcache.Key]*job
	queue    chan *job
	seq      int
	active   int // non-terminal jobs
	counts   map[State]int
	draining bool
	crashed  bool
	closed   bool
}

// Open builds a Manager: it replays the journal (if any), compacts it,
// re-enqueues every incomplete job and starts the worker pool. The
// returned manager is serving immediately — replayed work may begin
// before Open returns.
func Open(cfg Config, runner Runner) (*Manager, error) {
	cfg = cfg.normalized()
	m := &Manager{
		cfg:    cfg,
		runner: runner,
		stop:   make(chan struct{}),
		jobs:   make(map[string]*job),
		byKey:  make(map[resultcache.Key]*job),
		counts: make(map[State]int),
	}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())

	var incomplete []*job
	if cfg.Dir != "" {
		recs, skipped, err := replayJournal(cfg.Dir)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			log.Printf("jobs: journal replay skipped %d unreadable record(s)", skipped)
		}
		incomplete = m.rebuild(recs)
		j, err := openJournal(cfg.Dir, !cfg.NoSync, cfg.Hooks)
		if err != nil {
			return nil, err
		}
		m.j = j
		if err := j.compact(m.snapshotRecords()); err != nil {
			return nil, err
		}
	}

	// Every active job holds at most one queue slot at a time; size for
	// the submission bound plus whatever replay brought back.
	m.queue = make(chan *job, cfg.QueueDepth+len(incomplete)+cfg.Workers+1)
	for _, jb := range incomplete {
		m.queue <- jb
	}
	m.refreshGauges()
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// rebuild reconstructs the job table from replayed records and returns
// the incomplete jobs in submission order, normalized for re-execution:
// a job caught mid-run by the crash repeats its interrupted attempt, a
// retrying job re-enters the queue immediately (the restart itself was
// the pause).
func (m *Manager) rebuild(recs []Record) []*job {
	for _, rec := range recs {
		switch rec.Type {
		case "submit":
			if _, ok := m.jobs[rec.ID]; ok {
				continue
			}
			sum, err := strconv.ParseUint(rec.Key, 16, 64)
			if err != nil {
				continue
			}
			var tag uint64
			if rec.Tag != "" {
				tag, _ = strconv.ParseUint(rec.Tag, 16, 64)
			}
			maxA := rec.MaxAttempts
			if maxA <= 0 {
				maxA = m.cfg.MaxAttempts
			}
			jb := &job{
				id:          rec.ID,
				seq:         rec.Seq,
				spec:        Spec{Op: rec.Op, Key: resultcache.Key{Op: rec.Op, Sum: sum}, Tag: tag, Payload: rec.Payload},
				maxAttempts: maxA,
				state:       StateQueued,
				submitted:   time.UnixMilli(rec.SubmittedMs),
				updated:     time.UnixMilli(rec.SubmittedMs),
				done:        make(chan struct{}),
			}
			m.jobs[rec.ID] = jb
			m.order = append(m.order, rec.ID)
			if rec.Seq > m.seq {
				m.seq = rec.Seq
			}
		case "state":
			jb := m.jobs[rec.ID]
			if jb == nil || jb.state.Terminal() {
				continue
			}
			jb.state = rec.State
			jb.attempt = rec.Attempt
			jb.err = rec.Error
		}
	}
	var incomplete []*job
	for _, id := range m.order {
		jb := m.jobs[id]
		switch jb.state {
		case StateDone, StateFailed, StateCancelled:
			close(jb.done)
			continue
		case StateRunning:
			// The interrupted attempt never finished; re-run it under the
			// same attempt number.
			jb.attempt--
		}
		jb.state = StateQueued
		m.active++
		if m.byKey[jb.spec.Key] == nil {
			m.byKey[jb.spec.Key] = jb
		}
		incomplete = append(incomplete, jb)
	}
	for _, jb := range m.jobs {
		m.counts[jb.state]++
	}
	m.trimLocked()
	return incomplete
}

// snapshotRecords folds the current job table into a minimal record
// list (submit + current state per job) for compaction.
func (m *Manager) snapshotRecords() []Record {
	recs := make([]Record, 0, 2*len(m.order))
	for _, id := range m.order {
		jb := m.jobs[id]
		recs = append(recs, jb.submitRecord())
		if jb.state != StateQueued || jb.attempt != 0 {
			recs = append(recs, jb.stateRecord())
		}
	}
	return recs
}

func (jb *job) submitRecord() Record {
	rec := Record{
		Type:        "submit",
		ID:          jb.id,
		Seq:         jb.seq,
		Op:          jb.spec.Op,
		Key:         fmt.Sprintf("%016x", jb.spec.Key.Sum),
		Payload:     jb.spec.Payload,
		MaxAttempts: jb.maxAttempts,
		SubmittedMs: jb.submitted.UnixMilli(),
	}
	if jb.spec.Tag != 0 {
		rec.Tag = fmt.Sprintf("%016x", jb.spec.Tag)
	}
	return rec
}

func (jb *job) stateRecord() Record {
	return Record{Type: "state", ID: jb.id, State: jb.state, Attempt: jb.attempt, Error: jb.err}
}

// Submit accepts one job: journal first, acknowledge second, so an
// acknowledged job is always recoverable. deduped reports that an
// active job with the same fingerprint already covers the work and was
// returned instead of queueing a twin.
func (m *Manager) Submit(spec Spec) (v View, deduped bool, err error) {
	m.mu.Lock()
	switch {
	case m.crashed:
		m.mu.Unlock()
		return View{}, false, ErrInjectedCrash
	case m.draining:
		m.mu.Unlock()
		return View{}, false, ErrDraining
	}
	if existing := m.byKey[spec.Key]; existing != nil {
		v := existing.view()
		m.mu.Unlock()
		jobsDeduped.Inc()
		return v, true, nil
	}
	if m.active >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return View{}, false, fmt.Errorf("%w: %d active jobs", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.seq++
	now := time.Now()
	jb := &job{
		id:          fmt.Sprintf("j%06d-%016x", m.seq, spec.Key.Sum),
		seq:         m.seq,
		spec:        spec,
		maxAttempts: m.cfg.MaxAttempts,
		state:       StateQueued,
		submitted:   now,
		updated:     now,
		done:        make(chan struct{}),
	}
	if err := m.j.append(jb.submitRecord()); err != nil {
		if err == ErrInjectedCrash {
			m.crashed = true
		}
		m.mu.Unlock()
		return View{}, false, fmt.Errorf("jobs: submission not journaled: %w", err)
	}
	m.jobs[jb.id] = jb
	m.order = append(m.order, jb.id)
	m.byKey[spec.Key] = jb
	m.active++
	m.counts[StateQueued]++
	v = jb.view()
	m.mu.Unlock()
	countTransition(StateQueued)
	m.refreshGauges()
	m.enqueue(jb)
	return v, false, nil
}

// enqueue hands a job to the worker pool without ever blocking a
// transition: the channel is sized for the invariants, and the rare
// overflow (config shrank between restarts) falls back to a goroutine.
func (m *Manager) enqueue(jb *job) {
	select {
	case m.queue <- jb:
	default:
		go func() {
			select {
			case m.queue <- jb:
			case <-m.stop:
			}
		}()
	}
}

// Get returns the job's current view.
func (m *Manager) Get(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb := m.jobs[id]
	if jb == nil {
		return View{}, ErrUnknownJob
	}
	return jb.view(), nil
}

// Result returns the in-memory result body of a job completed by this
// process. After a restart the journal knows the job is done but the
// body lives only in the result cache — callers fall back to it by the
// job's key.
func (m *Manager) Result(id string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb := m.jobs[id]
	if jb == nil || jb.state != StateDone || jb.result == nil {
		return nil, false
	}
	return jb.result, true
}

// Spec returns the journaled spec of a known job, so callers can reach
// the content-addressed result of a job completed before a restart.
func (m *Manager) Spec(id string) (Spec, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb := m.jobs[id]
	if jb == nil {
		return Spec{}, false
	}
	return jb.spec, true
}

// Cancel withdraws a job. Waiting jobs (queued/retrying) cancel
// immediately; a running job has its attempt context cancelled and
// reaches the cancelled state when the worker observes it; terminal
// jobs are returned unchanged.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	jb := m.jobs[id]
	if jb == nil {
		m.mu.Unlock()
		return View{}, ErrUnknownJob
	}
	switch jb.state {
	case StateQueued, StateRetrying:
		if jb.retryTimer != nil {
			jb.retryTimer.Stop()
			jb.retryTimer = nil
		}
		m.appendStateLocked(jb, StateCancelled, jb.attempt, "cancelled by client")
		m.setStateLocked(jb, StateCancelled, "cancelled by client")
	case StateRunning:
		jb.cancelRequested = true
		if jb.cancelAttempt != nil {
			jb.cancelAttempt()
		}
	}
	v := jb.view()
	m.mu.Unlock()
	m.refreshGauges()
	return v, nil
}

// Wait blocks until the job reaches a terminal state or ctx ends.
func (m *Manager) Wait(ctx context.Context, id string) (View, error) {
	m.mu.Lock()
	jb := m.jobs[id]
	m.mu.Unlock()
	if jb == nil {
		return View{}, ErrUnknownJob
	}
	select {
	case <-jb.done:
		return m.Get(id)
	case <-ctx.Done():
		return View{}, ctx.Err()
	}
}

// Active reports the number of non-terminal jobs — the queue-depth
// input to the serving layer's dynamic Retry-After.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// Workers reports the configured pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Crashed reports whether an injected crash killed the journal (test
// observability; production managers never crash this way).
func (m *Manager) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// worker drains the queue until the manager stops.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case jb := <-m.queue:
			m.runJob(jb)
		}
	}
}

// runJob executes one attempt and applies the resulting transition.
func (m *Manager) runJob(jb *job) {
	m.mu.Lock()
	if m.crashed || m.draining || (jb.state != StateQueued && jb.state != StateRetrying) {
		m.mu.Unlock()
		return
	}
	attempt := jb.attempt + 1
	if attempt > jb.maxAttempts {
		// Defensive: a replayed journal claiming more attempts than the
		// budget dead-letters instead of over-running.
		m.appendStateLocked(jb, StateFailed, jb.attempt, jb.err)
		m.setStateLocked(jb, StateFailed, jb.err)
		m.mu.Unlock()
		m.refreshGauges()
		return
	}
	if !m.appendStateLocked(jb, StateRunning, attempt, "") {
		m.mu.Unlock()
		return // journal crashed; the simulated process is dead
	}
	jb.attempt = attempt
	m.setStateLocked(jb, StateRunning, "")
	ctx, cancel := context.WithCancel(m.baseCtx)
	if m.cfg.AttemptTimeout > 0 {
		cancel()
		ctx, cancel = context.WithTimeout(m.baseCtx, m.cfg.AttemptTimeout)
	}
	jb.cancelAttempt = cancel
	spec := jb.spec
	m.mu.Unlock()
	m.refreshGauges()

	sp := attemptTimer.Start()
	body, err := m.execute(ctx, spec, attempt)
	sp.End()
	cancel()

	m.mu.Lock()
	jb.cancelAttempt = nil
	if m.crashed {
		m.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		if m.appendStateLocked(jb, StateDone, jb.attempt, "") {
			jb.result = body
			m.setStateLocked(jb, StateDone, "")
		}
	case jb.cancelRequested:
		if m.appendStateLocked(jb, StateCancelled, jb.attempt, err.Error()) {
			m.setStateLocked(jb, StateCancelled, err.Error())
		}
	case m.draining:
		// Checkpoint, don't abandon: the interrupted attempt is handed
		// back so the restarted daemon re-runs it without burning budget.
		if m.appendStateLocked(jb, StateQueued, jb.attempt-1, "") {
			jb.attempt--
			m.setStateLocked(jb, StateQueued, "")
		}
	case jb.attempt >= jb.maxAttempts:
		if m.appendStateLocked(jb, StateFailed, jb.attempt, err.Error()) {
			m.setStateLocked(jb, StateFailed, err.Error())
		}
	default:
		m.retryLocked(jb, err)
	}
	m.mu.Unlock()
	m.refreshGauges()
}

// execute runs the fault-injection hooks and then the Runner.
func (m *Manager) execute(ctx context.Context, spec Spec, attempt int) ([]byte, error) {
	if h := m.cfg.Hooks; h != nil {
		if h.ComputeDelay != nil {
			if d := h.ComputeDelay(spec, attempt); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
					return nil, ctx.Err()
				case <-t.C:
				}
			}
		}
		if h.BeforeCompute != nil {
			if err := h.BeforeCompute(spec, attempt); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.runner.Run(ctx, spec)
}

// retryLocked schedules the next attempt under the backoff policy.
func (m *Manager) retryLocked(jb *job, cause error) {
	delay := m.cfg.Retry.Delay(jb.spec.Key.Sum, jb.attempt)
	if !m.appendStateLocked(jb, StateRetrying, jb.attempt, cause.Error()) {
		return
	}
	m.setStateLocked(jb, StateRetrying, cause.Error())
	jb.retryAt = time.Now().Add(delay)
	jobsRetries.Inc()
	jb.retryTimer = time.AfterFunc(delay, func() {
		m.mu.Lock()
		ok := !m.crashed && !m.draining && jb.state == StateRetrying
		if ok {
			jb.retryTimer = nil
		}
		m.mu.Unlock()
		if ok {
			m.enqueue(jb)
		}
	})
}

// appendStateLocked journals one transition. It reports false only on
// an injected crash (the manager freezes); a genuine journal write
// failure is counted and the transition proceeds in memory — liveness
// over durability for mid-life records, the opposite of Submit.
func (m *Manager) appendStateLocked(jb *job, st State, attempt int, errMsg string) bool {
	err := m.j.append(Record{Type: "state", ID: jb.id, State: st, Attempt: attempt, Error: errMsg})
	if err == ErrInjectedCrash {
		m.crashed = true
		return false
	}
	return true
}

// setStateLocked applies one transition to the in-memory table,
// maintaining the per-state counts, the dedup index, retention and the
// terminal broadcast. Callers hold m.mu and journal first.
func (m *Manager) setStateLocked(jb *job, st State, errMsg string) {
	old := jb.state
	jb.state = st
	jb.err = errMsg
	jb.updated = time.Now()
	m.counts[old]--
	m.counts[st]++
	countTransition(st)
	if st.Terminal() && !old.Terminal() {
		close(jb.done)
		if m.byKey[jb.spec.Key] == jb {
			delete(m.byKey, jb.spec.Key)
		}
		m.active--
		m.trimLocked()
	}
}

// trimLocked evicts the oldest terminal jobs beyond the retention
// bound. Evicted jobs disappear from Get and from the next compaction.
func (m *Manager) trimLocked() {
	terminal := len(m.jobs) - m.active
	if terminal <= m.cfg.Retain {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		jb := m.jobs[id]
		if terminal > m.cfg.Retain && jb.state.Terminal() {
			m.counts[jb.state]--
			delete(m.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// refreshGauges publishes the waiting/running gauges from the counts.
func (m *Manager) refreshGauges() {
	m.mu.Lock()
	waiting := m.counts[StateQueued] + m.counts[StateRetrying]
	running := m.counts[StateRunning]
	m.mu.Unlock()
	jobsWaiting.Set(float64(waiting))
	jobsRunning.Set(float64(running))
}

// Close drains the manager: new submissions are refused, retry timers
// stop (retrying jobs stay journaled and replay on restart), in-flight
// attempts are interrupted and checkpointed back to queued, and the
// journal is closed. ctx bounds the wait for workers; on expiry the
// base context is cancelled so even a hung Runner unwinds.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.draining = true
	for _, jb := range m.jobs {
		if jb.retryTimer != nil {
			jb.retryTimer.Stop()
			jb.retryTimer = nil
		}
		if jb.cancelAttempt != nil {
			jb.cancelAttempt()
		}
	}
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.stop) })

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		m.baseCancel()
		<-finished
	}
	m.baseCancel()
	return m.j.close()
}

// Kill is the abrupt stop the chaos suite uses after an injected
// crash: no checkpointing, no draining — workers are cancelled and the
// journal handle closed, leaving the directory exactly as the "dead
// process" wrote it.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.crashed = true
	for _, jb := range m.jobs {
		if jb.retryTimer != nil {
			jb.retryTimer.Stop()
			jb.retryTimer = nil
		}
	}
	m.mu.Unlock()
	m.baseCancel()
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
	_ = m.j.close()
}
