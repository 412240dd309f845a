package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/obs"
)

// Options configures a Service.
type Options struct {
	// StateDir is where the WAL and the disk cache tier live. Empty runs the
	// service fully in memory (no persistence, no resume) — test mode.
	StateDir string
	// Workers sizes the engine pool (0 = GOMAXPROCS).
	Workers int
	// MaxConcurrentJobs bounds jobs executing at once (default 2); queued
	// jobs wait. Shards within one campaign still fan out across the whole
	// pool — this bounds job-level, not shard-level, concurrency.
	MaxConcurrentJobs int
	// QueueCap bounds queued-but-not-running jobs (default 64); submissions
	// beyond it fail fast with ErrQueueFull.
	QueueCap int
	// Recorder receives job and engine observability (nil = private).
	Recorder *obs.Recorder
	// Logger receives structured lifecycle logs, every line carrying
	// trace_id/job_id/tenant (nil = discard).
	Logger *slog.Logger
}

// Service is the campaign job server: a bounded fair queue in front of a
// fixed set of executor goroutines sharing one deterministic engine pool,
// with WAL persistence and a content-addressed cache underneath.
type Service struct {
	pool      *engine.Pool
	store     *Store // nil when StateDir is empty
	cache     *Cache
	artifacts *harness.Store // cells, results and traces over cache, shared by all jobs
	queue     *queue
	rec       *obs.Recorder
	log       *slog.Logger
	cancel    context.CancelFunc
	wg        sync.WaitGroup

	// queueCap mirrors Options.QueueCap for the /readyz saturation check.
	queueCap int
	// liveWorkers counts executor goroutines from their start (New counts
	// them before the go statement, so /readyz answered right after New
	// reads them) to their exit; /readyz reports the runner pool dead when
	// it hits zero before Close.
	liveWorkers atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	seq      int
	replayed map[string]map[int]*ShardSummary // jobID → shard checkpoints
	closed   bool
}

// New starts a service: replays the WAL under opts.StateDir, re-enqueues
// every unfinished job (completed shard checkpoints pre-loaded, so they
// resume rather than restart), and launches the executor goroutines.
func New(opts Options) (*Service, error) {
	if opts.MaxConcurrentJobs <= 0 {
		opts.MaxConcurrentJobs = 2
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	rec := opts.Recorder
	if rec == nil {
		rec = obs.NewRecorder()
	}
	log := opts.Logger
	if log == nil {
		log = obs.DiscardLogger()
	}

	var (
		store *Store
		rep   = &Replay{}
		err   error
	)
	casDir := ""
	if opts.StateDir != "" {
		store, rep, err = OpenStore(opts.StateDir)
		if err != nil {
			return nil, err
		}
		casDir = store.CASDir()
	}
	cache, err := NewCache(casDir, rec.Registry())
	if err != nil {
		return nil, err
	}

	pool := engine.New(opts.Workers)
	pool.SetObs(rec)

	s := &Service{
		pool: pool, store: store, cache: cache,
		artifacts: harness.NewStore(cache),
		queue:     newQueue(opts.QueueCap), rec: rec, log: log,
		queueCap: opts.QueueCap,
		jobs:     make(map[string]*Job),
		replayed: make(map[string]map[int]*ShardSummary),
	}
	s.queue.bind(rec.Registry())
	if store != nil {
		store.bind(rec.Registry(), rep)
	}

	// Rebuild the job table from the log. Finished jobs come back for
	// listing and cached results; unfinished ones go back on the queue.
	for _, rj := range rep.Jobs {
		s.seq++
		j := newJob(rj.ID, rj.Spec, time.Now())
		j.TraceID = rj.TraceID
		if j.TraceID == "" {
			// Pre-trace log (or torn record): mint one so the resumed run is
			// still correlatable, even if it no longer matches the submitter's.
			j.TraceID = obs.NewTraceID()
		}
		j.state = rj.State
		j.err = rj.Err
		if len(rj.Result) > 0 {
			j.result = rj.Result
		}
		s.jobs[rj.ID] = j
		s.order = append(s.order, rj.ID)
		if rj.State.Terminal() {
			continue
		}
		// The log may hold a spec this server no longer accepts (one
		// written before a bound existed); running it could take the
		// server down on every restart.
		spec := rj.Spec // a copy: the job keeps the spec and key it was logged with
		if err := spec.Normalize(); err != nil {
			j.setState(StateFailed, "resume: "+err.Error())
			s.logState(j)
			log.Warn("job not resumed", s.jobAttrs(j, slog.String("err", err.Error()))...)
			continue
		}
		j.state = StateQueued
		j.setEnqueuedUS(rec.Now())
		if len(rj.Shards) > 0 {
			s.replayed[rj.ID] = rj.Shards
		}
		if err := s.queue.push(rj.Spec.Tenant, rj.ID); err != nil {
			j.setState(StateFailed, "resume: "+err.Error())
		}
		log.Info("job resumed from wal", s.jobAttrs(j,
			slog.Int("checkpointed_shards", len(rj.Shards)))...)
	}
	if rep.Truncated > 0 {
		rec.Registry().Counter("jobs.wal_truncated_lines").Add(int64(rep.Truncated))
		log.Warn("wal lines truncated", slog.Int("lines", rep.Truncated))
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < opts.MaxConcurrentJobs; i++ {
		s.wg.Add(1)
		s.liveWorkers.Add(1)
		go s.worker(ctx)
	}
	return s, nil
}

// jobAttrs builds the structured-log attributes every job-scoped line
// carries; extra attrs append after the identity set.
func (s *Service) jobAttrs(j *Job, extra ...any) []any {
	attrs := []any{
		slog.String("trace_id", j.TraceID),
		slog.String("job_id", j.ID),
		slog.String("tenant", j.Spec.Tenant),
		slog.String("kind", j.Spec.Kind),
	}
	return append(attrs, extra...)
}

// Submit normalizes and enqueues a spec under a fresh server-minted trace
// ID, returning the job id.
func (s *Service) Submit(spec Spec) (string, error) {
	return s.SubmitWithTrace(spec, "")
}

// SubmitWithTrace is Submit under a caller-supplied trace ID (the 32-hex
// trace-id field of a W3C traceparent). Empty mints a new one. The ID is
// stamped into the job record, its WAL line, and every event, span, metric
// label, and log line the job produces, so a client that kept its
// traceparent can correlate the full server-side execution.
func (s *Service) SubmitWithTrace(spec Spec, traceID string) (string, error) {
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrQueueClosed
	}
	s.seq++
	id := fmt.Sprintf("j%04d-%s", s.seq, spec.Key()[:8])
	j := newJob(id, spec, time.Now())
	j.TraceID = traceID
	j.setEnqueuedUS(s.rec.Now())
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if s.store != nil {
		if err := s.store.AppendJob(id, spec, traceID); err != nil {
			j.setState(StateFailed, err.Error())
			return "", err
		}
	}
	// A miss here is not counted: the job counts one when it computes
	// its result, or a hit when it finds it stored by then.
	if raw, ok := s.cache.lookup(spec.Key()); ok {
		s.cache.hit("result", true)
		s.finishCached(j, raw)
		return id, nil
	}
	if err := s.queue.push(spec.Tenant, id); err != nil {
		j.setState(StateFailed, err.Error())
		s.logState(j)
		s.log.Warn("job rejected", s.jobAttrs(j, slog.String("err", err.Error()))...)
		return "", err
	}
	s.rec.Registry().Counter("jobs.submitted").Inc()
	s.log.Info("job submitted", s.jobAttrs(j,
		slog.Int("queue_depth", s.queue.depth()))...)
	return id, nil
}

// finishCached completes at submit a job whose result the cache already
// holds. It never queues, so it waits behind no cold job and does not count
// toward the queue bound; it starts and finishes at once.
func (s *Service) finishCached(j *Job, raw json.RawMessage) {
	s.rec.Registry().Counter("jobs.submitted").Inc()
	tc := obs.TraceContext{TraceID: j.TraceID, JobID: j.ID, Tenant: j.Spec.Tenant}
	s.rec.Instant(s.rec.Process("job:"+j.ID), 1, "result cache hit", "job", s.rec.Now(),
		tc.Args(map[string]any{"key": j.Spec.Key()[:16], "at": "submit"}))
	j.start()
	s.finish(j, raw, true, 0)
}

// finish records a job's payload, in the WAL too, and marks it done.
func (s *Service) finish(j *Job, raw json.RawMessage, cached bool, durMS int64) {
	j.setResult(raw, cached)
	if s.store != nil {
		_ = s.store.AppendResult(j.ID, raw)
	}
	j.setState(StateDone, "")
	s.logState(j)
	s.rec.Registry().Counter("jobs.done").Inc()
	s.log.Info("job done", s.jobAttrs(j,
		slog.Int64("dur_ms", durMS), slog.Bool("cache_hit", cached))...)
}

// Get returns a job by id.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns all jobs in submission order.
func (s *Service) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a job: a queued job goes straight to cancelled (the worker
// skips it when popped); a running job has its context cancelled and stops
// at the next shard boundary, keeping its completed checkpoints.
func (s *Service) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("jobs: no job %q", id)
	}
	if j.State().Terminal() {
		return nil
	}
	j.markUserCancel()
	if j.State() == StateQueued {
		j.setState(StateCancelled, "")
		s.logState(j)
	}
	s.log.Info("job cancel requested", s.jobAttrs(j)...)
	return nil
}

// ReadyChecks supplies the /readyz dependency probes: the WAL accepts
// appends, the queue has headroom, and the executor pool is alive.
func (s *Service) ReadyChecks() []obs.ReadyCheck {
	return []obs.ReadyCheck{
		{Name: "wal", Check: func() error {
			if s.store == nil {
				return nil // memory-only mode has no WAL to fail
			}
			return s.store.Healthy()
		}},
		{Name: "queue", Check: func() error {
			if d := s.queue.depth(); s.queueCap > 0 && d >= s.queueCap {
				return fmt.Errorf("saturated: %d/%d", d, s.queueCap)
			}
			return nil
		}},
		{Name: "runner", Check: func() error {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return fmt.Errorf("service closed")
			}
			if s.liveWorkers.Load() == 0 {
				return fmt.Errorf("no live workers")
			}
			return nil
		}},
	}
}

// Snapshot is the /runs payload: queue and job-table summary next to the
// engine progress counters.
type Snapshot struct {
	Engine engine.Progress `json:"engine"`
	Queue  int             `json:"queue_depth"`
	States map[string]int  `json:"job_states"`
	Jobs   []Status        `json:"jobs"`
}

// Snapshot summarizes the service for the /runs endpoint.
func (s *Service) Snapshot() Snapshot {
	snap := Snapshot{
		Engine: s.pool.Tracker().Snapshot(),
		Queue:  s.queue.depth(),
		States: make(map[string]int),
	}
	for _, j := range s.List() {
		st := j.Status()
		snap.States[string(st.State)]++
		snap.Jobs = append(snap.Jobs, st)
	}
	sort.Slice(snap.Jobs, func(a, b int) bool { return snap.Jobs[a].ID < snap.Jobs[b].ID })
	return snap
}

// Close drains the service: no new submissions, queued jobs are discarded
// (the WAL re-enqueues them on restart), running jobs are cancelled and
// stop at their next shard boundary with checkpoints intact. Shutdown
// deliberately writes no terminal state records for interrupted jobs —
// their last logged state stays queued/running, which is exactly what
// replay re-enqueues.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.log.Info("service draining")
	s.queue.close()
	s.cancel()
	s.wg.Wait()
	s.log.Info("service stopped")
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

func (s *Service) logState(j *Job) {
	if s.store == nil {
		return
	}
	st := j.Status()
	_ = s.store.AppendState(j.ID, st.State, st.Error)
}

// worker loops popping jobs until shutdown.
func (s *Service) worker(base context.Context) {
	defer s.wg.Done()
	defer s.liveWorkers.Add(-1)
	for {
		id, ok := s.queue.pop()
		if !ok {
			return
		}
		s.mu.Lock()
		j := s.jobs[id]
		rep := s.replayed[id]
		delete(s.replayed, id)
		s.mu.Unlock()
		if j == nil || j.State().Terminal() {
			continue // cancelled while queued
		}
		s.execute(base, j, rep)
	}
}

// storeFlight persists a failing launch's flight-recorder bundle in the
// content-addressed cache and links it from the job, so GET /jobs/{id}/flight
// can hand the black box to whoever debugs the failure. Best-effort: a cache
// write error only logs.
func (s *Service) storeFlight(j *Job, err error) {
	var fe *harness.FlightError
	if !errors.As(err, &fe) || len(fe.Bundle) == 0 {
		return
	}
	key := CacheKey("flight", string(fe.Bundle))
	if cerr := s.cache.Put("flight", key, fe.Bundle); cerr != nil {
		s.log.Warn("flight bundle not cached", s.jobAttrs(j,
			slog.String("err", cerr.Error()))...)
		return
	}
	j.setFlight(key)
	s.rec.Registry().Counter("jobs.flight_bundles").Inc()
	s.log.Info("flight bundle captured", s.jobAttrs(j,
		slog.String("workload", fe.Workload), slog.String("scheme", fe.Scheme),
		slog.String("key", key), slog.Int("bytes", len(fe.Bundle)))...)
}

// execute runs one job to a terminal state (or leaves it checkpointed when
// the base context — shutdown — is what stopped it).
func (s *Service) execute(base context.Context, j *Job, rep map[int]*ShardSummary) {
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	j.bindCancel(cancel)
	if j.userCancelled() {
		// Cancel landed between pop and bind: honor it before doing work.
		cancel()
	}

	// Thread the job's trace identity through the context so every layer
	// below — runner, engine shards, faultsim spans — stamps the same
	// trace_id without signature plumbing.
	tc := obs.TraceContext{TraceID: j.TraceID, JobID: j.ID, Tenant: j.Spec.Tenant}
	ctx = obs.ContextWith(ctx, tc)

	enqueuedUS, wait := j.queueWait()
	s.rec.Registry().Histogram("jobs.queue_wait_ms").Observe(wait.Milliseconds())

	j.setState(StateRunning, "")
	s.logState(j)
	s.log.Info("job started", s.jobAttrs(j,
		slog.Int64("queue_wait_ms", wait.Milliseconds()))...)
	s.rec.Registry().Gauge("jobs.running").Add(1)
	defer s.rec.Registry().Gauge("jobs.running").Add(-1)

	r := &runner{pool: s.pool, artifacts: s.artifacts, store: s.store,
		rec: s.rec, tc: tc, queuedUS: enqueuedUS}
	start := time.Now()
	raw, cached, err := r.run(ctx, j, rep)
	durMS := time.Since(start).Milliseconds()
	s.rec.Registry().Histogram("jobs.duration_ms").Observe(durMS)
	s.rec.Registry().Histogram(obs.Name("jobs.duration_ms", "kind", j.Spec.Kind)).Observe(durMS)

	switch {
	case err == nil:
		s.finish(j, raw, cached, durMS)
	case j.userCancelled():
		j.setState(StateCancelled, "")
		s.logState(j)
		s.rec.Registry().Counter("jobs.cancelled").Inc()
		s.log.Info("job cancelled", s.jobAttrs(j, slog.Int64("dur_ms", durMS))...)
	case base.Err() != nil:
		// Shutdown, not failure: leave the job's logged state as running so
		// a restart re-enqueues it; checkpoints make the re-run incremental.
		s.log.Info("job interrupted by shutdown", s.jobAttrs(j)...)
	default:
		s.storeFlight(j, err)
		j.setState(StateFailed, err.Error())
		s.logState(j)
		s.rec.Registry().Counter("jobs.failed").Inc()
		s.log.Error("job failed", s.jobAttrs(j,
			slog.Int64("dur_ms", durMS), slog.String("err", err.Error()))...)
	}
}
