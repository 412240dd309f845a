package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
)

// The serve traffic is an assumption, not a trace: no record of how the job
// server is used exists. It takes the batch use the server's fair queue is
// built for (a tenant submits several jobs at once, and round-robin keeps
// one tenant's batch from delaying another's) and the 40/30/30 mix of cold
// campaigns, cold perf sweeps and cached resubmits. Every serveInterval,
// whether or not earlier jobs finished, two tenants each submit their list
// in serveBatch at the same time. The server runs two jobs at a time, so
// eight of a batch's ten jobs wait in the queue, and the cached resubmits
// wait there behind cold jobs, because the cache is checked after dequeue.
// A seed changes which specs the jobs carry, not how much work they are:
// every cold perf job runs three schemes. Arrivals at random times
// (Poisson, at 4 jobs/s) made a run's median latency depend on how a
// seed's arrivals bunched, and spread it by 37% over ten seeds.

const (
	// serveInterval is the time from one batch to the next. A batch drains
	// in about 2 s on two cores, so the queue empties before the next batch
	// is due and latency does not grow with the run's length.
	serveInterval = 5 * time.Second
	// serveTuples is the per-unit tuple count of campaign jobs.
	serveTuples = 1000
	// servePerfSchemes is how many schemes a cold perf job runs.
	servePerfSchemes = 3
)

// serveTenants are the two clients.
var serveTenants = []string{"tenant-a", "tenant-b"}

// serveBatch is each tenant's job list: four campaigns, three perf jobs and
// three cached jobs per batch.
var serveBatch = [][]string{
	{"campaign", "perf", "cached", "campaign", "perf"},
	{"campaign", "cached", "perf", "campaign", "cached"},
}

// serveJob is one scheduled submission of the serve workload.
type serveJob struct {
	batch  int
	due    time.Duration // offset from the start of the window
	class  string        // "campaign", "perf" or "cached"
	spec   jobs.Spec
	cached int // index into the set-up pool when class is "cached"
}

// orderedSubsets lists every ordered choice of k distinct schemes. The job
// cache keys on the scheme order, so each is a distinct cold spec.
func orderedSubsets(schemes []string, k int) [][]string {
	if k == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for _, rest := range orderedSubsets(schemes, k-1) {
		for _, s := range schemes {
			if !slices.Contains(rest, s) {
				out = append(out, append(slices.Clone(rest), s))
			}
		}
	}
	return out
}

// serveBatches is how many batches fall in a window: one at its start and
// one every serveInterval after.
func serveBatches(window time.Duration) int {
	return max(1, int((window+serveInterval-1)/serveInterval))
}

// serveSchedule derives the set-up pool and the job schedule of the given
// number of batches from the seed: cold campaigns with fresh seeds, cold
// perf jobs over unused scheme subsets, and resubmits of pool specs. A
// schedule is a prefix of every longer one, so golden.json can pin the
// first jobs of seed 1 whatever the run length.
func serveSchedule(seed int64, batches int) (pool []jobs.Spec, sched []serveJob) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(k int) [][]string {
		s := orderedSubsets(fig12SchemeNames(), k)
		rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		return s
	}
	pairs, subsets := shuffled(2), shuffled(servePerfSchemes)
	// Four campaigns in the pool also build most of the fan-out cones that
	// campaign jobs build lazily, which otherwise slow the first measured
	// jobs.
	for k := int64(0); k < 4; k++ {
		pool = append(pool, jobs.Spec{Kind: jobs.KindCampaign, Tuples: serveTuples, Seed: seed*1000 + k})
	}
	pool = append(pool, jobs.Spec{Kind: jobs.KindPerf, Schemes: pairs[0]},
		jobs.Spec{Kind: jobs.KindPerf, Schemes: pairs[1]})
	for b := 0; b < batches; b++ {
		for t, list := range serveBatch {
			for _, class := range list {
				j := serveJob{batch: b, due: time.Duration(b) * serveInterval, class: class}
				if j.class == "perf" && len(subsets) == 0 {
					j.class = "campaign" // every scheme subset already ran
				}
				switch j.class {
				case "campaign":
					j.spec = jobs.Spec{Kind: jobs.KindCampaign, Tuples: serveTuples, Seed: seed*1000 + 10 + int64(len(sched))}
				case "perf":
					j.spec = jobs.Spec{Kind: jobs.KindPerf, Schemes: subsets[0]}
					subsets = subsets[1:]
				case "cached":
					j.cached = rng.Intn(len(pool))
					j.spec = pool[j.cached]
				}
				j.spec.Tenant = serveTenants[t]
				sched = append(sched, j)
			}
		}
	}
	return pool, sched
}

// serveBench is the serve workload: an in-process job service with a real
// state directory (WAL and CAS on disk) behind the HTTP server, driven by
// one client goroutine per tenant.
type serveBench struct {
	cfg    config
	g      *golden
	dir    string
	svc    *jobs.Service
	srv    *obs.Server
	http   *http.Client
	client *jobs.Client
	pool   [][]byte // payloads of the set-up pool, for cache-hit checks
	sched  []serveJob
}

func newServeBench(ctx context.Context, cfg config, g *golden) (_ *serveBench, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	b := &serveBench{cfg: cfg, g: g}
	if b.dir, err = os.MkdirTemp(cfg.outDir, "serve-state-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	rec := obs.NewRecorder()
	if b.svc, err = jobs.New(jobs.Options{StateDir: b.dir, Workers: cfg.nproc, Recorder: rec}); err != nil {
		return nil, err
	}
	b.srv, err = obs.StartConfigured(obs.ServerConfig{Addr: "127.0.0.1:0", Registry: rec.Registry(),
		Runs: func() any { return b.svc.Snapshot() }, Register: b.svc.Register, Ready: b.svc.ReadyChecks})
	if err != nil {
		return nil, err
	}
	// A keep-alive connection per tenant.
	b.http = &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: len(serveTenants), MaxIdleConnsPerHost: len(serveTenants)}}
	// One attempt per call: a 429 is a failed submission, not a retry.
	b.client = &jobs.Client{Base: b.srv.URL(), HTTPClient: b.http, MaxAttempts: 1, Seed: cfg.seed}

	var pool []jobs.Spec
	pool, b.sched = serveSchedule(cfg.seed, serveBatches(cfg.window))
	// Run the pool now, so the window's resubmits are cache hits; this also
	// builds the cone tables and caches the operand trace.
	ids := make([]string, len(pool))
	for i, spec := range pool {
		if ids[i], err = b.client.Submit(ctx, spec); err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
	}
	for i, id := range ids {
		st, err := b.client.Wait(ctx, id, 10*time.Millisecond, nil)
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		raw, err := b.client.Result(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		class := map[string]string{jobs.KindCampaign: "campaign", jobs.KindPerf: "perf"}[pool[i].Kind]
		if err := b.verifyPayload(serveJob{class: class, spec: pool[i]}, st, raw); err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		b.pool = append(b.pool, raw)
	}
	return b, nil
}

func (b *serveBench) close() error {
	var err error
	if b.http != nil {
		b.http.CloseIdleConnections()
	}
	if b.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = b.srv.Shutdown(sctx)
		cancel()
	}
	if b.svc != nil {
		if cerr := b.svc.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// verifyPayload checks one finished job: cached jobs must return the pool
// run's exact bytes, perf jobs the golden Figure 12 slowdowns, and campaign
// jobs a well-formed six-unit result for their own spec.
func (b *serveBench) verifyPayload(j serveJob, st jobs.Status, raw []byte) error {
	if st.State != jobs.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	switch j.class {
	case "cached":
		if !st.CacheHit || !bytes.Equal(raw, b.pool[j.cached]) {
			return fmt.Errorf("job %s: resubmit was not served from the cache unchanged", st.ID)
		}
	case "perf":
		var pr jobs.PerfResult
		if err := json.Unmarshal(raw, &pr); err != nil {
			return fmt.Errorf("job %s: %w", st.ID, err)
		}
		if len(pr.Rows) != 15 {
			return fmt.Errorf("job %s: %d perf rows, want 15", st.ID, len(pr.Rows))
		}
		for _, row := range pr.Rows {
			for _, s := range j.spec.Schemes {
				if err := b.g.verifySlowdown(row.Workload, s, row.Slowdown[s]); err != nil {
					return fmt.Errorf("job %s: %w", st.ID, err)
				}
			}
		}
	case "campaign":
		var cr jobs.CampaignResult
		if err := json.Unmarshal(raw, &cr); err != nil {
			return fmt.Errorf("job %s: %w", st.ID, err)
		}
		if cr.Tuples != j.spec.Tuples || cr.Seed != j.spec.Seed || len(cr.Units) != 6 || len(cr.Digest) != 64 {
			return fmt.Errorf("job %s: malformed campaign result", st.ID)
		}
		for _, u := range cr.Units {
			if u.Injections <= 0 || u.Injections > cr.Tuples {
				return fmt.Errorf("job %s: %s: %d injections for %d tuples", st.ID, u.Unit, u.Injections, cr.Tuples)
			}
		}
	}
	return nil
}

// jobOutcome is what the run observed about one scheduled job.
type jobOutcome struct {
	job       serveJob
	due, sent time.Time
	submitRTT time.Duration
	resultRTT time.Duration
	st        jobs.Status
	err       error
}

// latency is the job's end-to-end time, from when it was due to when the
// server finished it.
func (o *jobOutcome) latency() time.Duration { return o.st.FinishedAt.Sub(o.due) }

// serveRun is one measured window.
type serveRun struct {
	outs []*jobOutcome
	// backlog counts the jobs of earlier batches not finished when the last
	// batch was due: 0 when the queue empties between batches.
	backlog int
	rssMB   []float64 // resident-set peak of each batch interval
}

// rssSample appends the resident-set peak since the last reset and resets
// it. The server cannot stop for a collection between jobs, as a closed
// loop does between ops, so a peak per batch interval stands in for a peak
// per op.
func (r *serveRun) rssSample() error {
	peak, err := peakRSSMB()
	if err == nil {
		err = resetPeakRSS()
	}
	r.rssMB = append(r.rssMB, peak)
	return err
}

// run submits the schedule open-loop, each batch's jobs from one goroutine
// per tenant, waits for every job to finish, then reads back each job's
// timestamps and payload.
func (b *serveBench) run(ctx context.Context) (*serveRun, error) {
	r := &serveRun{}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	ids := make([]string, len(b.sched))
	for _, j := range b.sched {
		r.outs = append(r.outs, &jobOutcome{job: j, due: t0.Add(j.due)})
	}
	for start := 0; start < len(b.sched); {
		end := start
		for end < len(b.sched) && b.sched[end].due == b.sched[start].due {
			end++
		}
		if err := sleepUntil(ctx, r.outs[start].due); err != nil {
			return nil, err
		}
		if start > 0 {
			if err := r.rssSample(); err != nil {
				return nil, err
			}
		}
		if end == len(b.sched) {
			for _, id := range ids[:start] {
				if j, ok := b.svc.Get(id); ok && !j.State().Terminal() {
					r.backlog++
				}
			}
		}
		var wg sync.WaitGroup
		for _, tenant := range serveTenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := start; i < end; i++ {
					if o := r.outs[i]; o.job.spec.Tenant == tenant {
						o.sent = time.Now()
						ids[i], o.err = b.client.Submit(ctx, o.job.spec)
						o.submitRTT = time.Since(o.sent)
					}
				}
			}()
		}
		wg.Wait()
		start = end
	}
	for i, id := range ids {
		o := r.outs[i]
		if o.err != nil {
			continue
		}
		if o.st, o.err = b.client.Wait(ctx, id, 10*time.Millisecond, nil); o.err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		t := time.Now()
		raw, err := b.client.Result(ctx, id)
		o.resultRTT = time.Since(t)
		if err == nil {
			err = b.verifyPayload(o.job, o.st, raw)
		}
		if err == nil && b.cfg.seed == b.g.Seed && i < len(b.g.Serve) && digest(raw) != b.g.Serve[i] {
			err = fmt.Errorf("job %s: payload digest differs from golden job %d", id, i)
		}
		o.err = err
	}
	if err := r.rssSample(); err != nil {
		return nil, err
	}
	return r, nil
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// measure runs the window. The op is one tenant's batch, from when it was
// due until the last of its jobs finished: what a tenant waits for. A
// single job's latency depends on where the queue placed it, which moves
// from run to run; a batch's depends mostly on the work queued. Each job
// class's latency is reported beside it. Attempts and failures count jobs.
func (b *serveBench) measure(ctx context.Context) (*opSamples, error) {
	debug.FreeOSMemory()
	run, err := b.run(ctx)
	if err != nil {
		return nil, err
	}
	f := &opSamples{rssMB: run.rssMB, jobs: map[string][]float64{}, backlog: run.backlog}
	type batchKey struct {
		batch  int
		tenant string
	}
	batchLat := map[batchKey]float64{}
	var order []batchKey
	for _, o := range run.outs {
		k := batchKey{o.job.batch, o.job.spec.Tenant}
		if _, ok := batchLat[k]; !ok {
			order = append(order, k)
		}
		f.attempted++
		f.lateMS = append(f.lateMS, ms(o.sent.Sub(o.due)))
		if o.err != nil {
			f.failed++
			batchLat[k] = math.NaN()
			fmt.Fprintf(os.Stderr, "swapbench: serve: %v\n", o.err)
			continue
		}
		lat := o.latency().Seconds()
		f.jobs[o.job.class] = append(f.jobs[o.job.class], lat)
		batchLat[k] = max(batchLat[k], lat)
	}
	for _, k := range order {
		if lat := batchLat[k]; !math.IsNaN(lat) {
			f.ops = append(f.ops, lat)
		}
	}
	return f, nil
}

// layerSamples adds the job-layer metrics of a run: where a job's time went
// between submission, queue, execution and result fetch.
func (run *serveRun) layerSamples(s samples) {
	var submit, queue, result, late []float64
	exec := map[string][]float64{}
	hits, done := 0, 0
	for _, o := range run.outs {
		late = append(late, ms(o.sent.Sub(o.due)))
		if o.err != nil {
			continue
		}
		done++
		if o.st.CacheHit {
			hits++
		}
		submit = append(submit, ms(o.submitRTT))
		queue = append(queue, ms(o.st.StartedAt.Sub(o.st.SubmittedAt)))
		exec[o.job.class] = append(exec[o.job.class], ms(o.st.FinishedAt.Sub(o.st.StartedAt)))
		result = append(result, ms(o.resultRTT))
	}
	s.add("jobs.submit_ms_p50", median(submit))
	s.add("jobs.queue_ms_p50", median(queue))
	s.add("jobs.queue_ms_p75", quantile(queue, 0.75))
	for _, c := range jobClasses {
		s.add("jobs.exec_ms_p50."+c, median(exec[c]))
	}
	s.add("jobs.result_ms_p50", median(result))
	s.add("jobs.cache_hit_frac", float64(hits)/float64(max(done, 1)))
	s.add("jobs.gen_late_ms_p75", quantile(late, 0.75))
	s.add("jobs.backlog_end", float64(run.backlog))
}
