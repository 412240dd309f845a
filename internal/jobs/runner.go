package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/harness"
	"swapcodes/internal/obs"
	"swapcodes/internal/trace"
	"swapcodes/internal/verify"
)

// runner executes jobs of every kind on one shared engine pool, checking
// the content-addressed cache first and checkpointing campaign shards
// through the WAL. All payloads it produces are deterministic functions of
// the spec — no wall-clock, no worker-count dependence — which is what lets
// the kill/resume e2e test demand byte-identical results.
type runner struct {
	pool      *engine.Pool
	artifacts *harness.Store // the service's cells, results and traces, over its cache
	store     *Store         // nil in store-less tests: no checkpoints, still correct

	// Trace plumbing (zero values in store-less tests are fine: a nil
	// Recorder records nothing). Each job gets its own trace process row
	// ("job:<id>") carrying the queue-wait and execute spans; tc.Args stamps
	// trace_id/job_id/tenant into every span and instant so a Chrome export
	// filters one job end to end.
	rec      *obs.Recorder
	tc       obs.TraceContext
	queuedUS int64 // recorder timestamp at enqueue, for the queue-wait span
}

// run executes the job and returns (payload, servedFromCache, error).
// replayed carries the shard checkpoints the WAL restored for this job.
func (r *runner) run(ctx context.Context, j *Job, replayed map[int]*ShardSummary) (json.RawMessage, bool, error) {
	if start := r.rec.Now(); r.queuedUS > 0 && start > r.queuedUS {
		// The queue-wait span is written at pop (not submit): until a
		// worker claims the job there is nobody to write it.
		r.rec.Span(r.rec.Process("job:"+j.ID), 1, "queue-wait", "job", r.queuedUS, start-r.queuedUS,
			r.tc.Args(nil))
	}
	return r.result(ctx, j, j.Spec, replayed)
}

// result returns spec's payload and whether the result cache held it. On a
// miss it computes the payload as part of job j, whose ID a campaign's
// shards checkpoint under and whose checkpoints replayed holds, and stores
// it under spec's key. A headline job resolves its campaign's spec here
// too, so campaign and headline jobs of one (tuples, seed) share one
// campaign. A call that finds another job computing the same spec waits
// for it (harness.Store). Each call counts one result-cache outcome: a hit
// when the payload comes from the cache, a miss when this call computes it.
func (r *runner) result(ctx context.Context, j *Job, spec Spec, replayed map[int]*ShardSummary) (json.RawMessage, bool, error) {
	pid, key := r.rec.Process("job:"+j.ID), spec.Key()
	raw, computed, err := r.artifacts.Resolve(ctx, "result", key, nil, func(ctx context.Context) ([]byte, error) {
		execStart := r.rec.Now()
		r.rec.Instant(pid, 1, "result cache miss", "job", execStart,
			r.tc.Args(map[string]any{"key": key[:16]}))
		var (
			v   any
			err error
		)
		switch spec.Kind {
		case KindCampaign:
			v, err = r.runCampaign(ctx, j, spec, replayed)
		case KindPerf:
			v, err = r.runPerf(ctx, spec)
		case KindHeadline:
			v, err = r.runHeadline(ctx, j, spec, replayed)
		case KindCPIStack:
			v, err = r.runCPIStack(ctx, spec)
		case KindVerify:
			v, err = r.runVerify(ctx)
		default:
			err = fmt.Errorf("jobs: unknown kind %q", spec.Kind)
		}
		r.rec.Span(pid, 1, "execute:"+spec.Kind, "job", execStart, r.rec.Now()-execStart,
			r.tc.Args(map[string]any{"ok": err == nil}))
		if err != nil {
			return nil, err
		}
		// Compact on purpose: the WAL embeds results as json.RawMessage, and
		// encoding/json compacts embedded raw values on re-marshal — an
		// indented payload would come back from replay with different bytes.
		// Compact bytes survive the round trip verbatim, keeping the
		// byte-identity contract across restarts.
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("jobs: marshal result: %w", err)
		}
		return raw, nil
	})
	if err != nil {
		return nil, false, err
	}
	if !computed {
		r.rec.Instant(pid, 1, "result cache hit", "job", r.rec.Now(),
			r.tc.Args(map[string]any{"key": key[:16]}))
	}
	return raw, !computed, nil
}

// Interval is a tallied fraction with its Wilson 95% confidence interval.
type Interval struct {
	K    int     `json:"k"`
	N    int     `json:"n"`
	Frac float64 `json:"frac"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

func interval(c faultsim.Counts) Interval {
	iv := Interval{K: c.K, N: c.N, Hi: 1}
	if c.N > 0 {
		iv.Frac = c.Frac()
		iv.Lo, iv.Hi = c.Wilson(1.96)
	}
	return iv
}

// Severity bucket keys of CampaignUnit.Severity, in faultsim.Severity order.
var severityKeys = [3]string{"1bit", "2-3bits", "4+bits"}

// CampaignUnit is one arithmetic unit's merged campaign outcome.
type CampaignUnit struct {
	Unit       string              `json:"unit"`
	Injections int                 `json:"injections"`
	Severity   map[string]Interval `json:"severity"`
	SDC        map[string]Interval `json:"sdc"`
	ReEvalFrac float64             `json:"reeval_frac"`
}

// CampaignResult is the payload of a campaign job: the Figure 10/11 tables
// in structured form, assembled from per-shard summaries so a resumed run
// marshals to exactly the bytes of an uninterrupted one.
type CampaignResult struct {
	Kind   string         `json:"kind"`
	Tuples int            `json:"tuples"`
	Seed   int64          `json:"seed"`
	Units  []CampaignUnit `json:"units"`
	// PooledSDC pools all units per register-file code (Figure 11 "ALL").
	PooledSDC map[string]Interval `json:"pooled_sdc"`
	// Coverage is 1 - pooled SDC fraction per code, the headline claims.
	Coverage map[string]float64 `json:"coverage"`
	// Digest chains the per-shard injection-stream digests in canonical
	// shard order — equal digests mean bit-identical injection streams.
	Digest string `json:"digest"`
}

func (r *runner) runCampaign(ctx context.Context, j *Job, spec Spec, replayed map[int]*ShardSummary) (*CampaignResult, error) {
	plan := harness.NewCampaign(spec.Tuples, spec.Seed)
	units, refs := plan.Units, plan.Shards()
	j.setShardTotal(len(refs))

	sums := make([]*ShardSummary, len(refs))
	for idx, sum := range replayed {
		// Validate before trusting a checkpoint: a WAL written against a
		// different plan (changed spec, changed unit set) must not leak
		// shards into this one.
		if idx < 0 || idx >= len(refs) || sum == nil {
			continue
		}
		ref := refs[idx]
		if sum.Unit != ref.Unit || sum.Shard != ref.Shard || sum.UnitName != units[ref.Unit].Name {
			continue
		}
		sums[idx] = sum
		j.shardDone(sum.UnitName, sum.Shard, sum.Injections, true)
	}

	_, err := plan.Stream(ctx, r.pool, harness.Stream{
		Fill: r.traceFill(spec.Tuples),
		Skip: func(idx int) bool { return sums[idx] != nil },
		Done: func(idx int, out harness.ShardResult) error {
			ref := refs[idx]
			sum := summarizeShard(idx, ref, units[ref.Unit].Name, units[ref.Unit].OutputWidth, out)
			if r.store != nil {
				// Checkpoint before announcing: a shard the client saw
				// complete must survive a SIGKILL that follows immediately.
				if err := r.store.AppendShard(j.ID, sum); err != nil {
					return err
				}
			}
			sums[idx] = sum
			j.shardDone(sum.UnitName, sum.Shard, sum.Injections, false)
			return nil
		},
	})
	if err != nil {
		// Cancelled or failed mid-campaign: completed shards are already in
		// the WAL; a restart (or re-submission against the same state dir)
		// resumes from them.
		return nil, err
	}
	return assembleCampaign(spec, plan, sums), nil
}

// summarizeShard reduces a shard's raw injections to the checkpointable
// summary: severity and per-code SDC tallies plus a digest of the stream.
func summarizeShard(idx int, ref harness.ShardRef, unitName string, outWidth int, out harness.ShardResult) *ShardSummary {
	sum := &ShardSummary{
		Index: idx, Unit: ref.Unit, Shard: ref.Shard, UnitName: unitName,
		Injections: len(out.Injections),
		SDC:        make(map[string]faultsim.Counts),
		Stats:      out.Stats,
		Digest:     digestInjections(out.Injections),
	}
	for sev := faultsim.OneBit; sev <= faultsim.FourPlusBits; sev++ {
		sum.Severity[sev] = faultsim.SeverityCounts(out.Injections, sev)
	}
	for _, code := range harness.Fig11Codes() {
		sum.SDC[code.Name()] = faultsim.SDCCounts(out.Injections, code, outWidth)
	}
	return sum
}

// digestInjections hashes a shard's injection stream over a canonical
// binary encoding (JSON would corrupt 64-bit operand patterns). Equal
// digests ⇒ bit-identical streams, which is how the e2e test asserts that
// resumption reproduced the uninterrupted campaign exactly.
func digestInjections(inj []faultsim.Injection) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(inj)))
	for _, in := range inj {
		u64(uint64(len(in.Ops)))
		for _, op := range in.Ops {
			u64(op)
		}
		u64(in.Golden)
		u64(in.Faulty)
		u64(uint64(in.Site))
		if in.IsFF {
			u64(1)
		} else {
			u64(0)
		}
		u64(uint64(in.Attempts))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// assembleCampaign merges the per-shard summaries (any mix of replayed and
// re-run) into the final payload. Counts merge order-independently and the
// digest chain follows canonical shard order, so the output depends only on
// the spec.
func assembleCampaign(spec Spec, plan *harness.InjectionPlan, sums []*ShardSummary) *CampaignResult {
	res := &CampaignResult{Kind: KindCampaign, Tuples: spec.Tuples, Seed: spec.Seed,
		PooledSDC: make(map[string]Interval), Coverage: make(map[string]float64)}

	type acc struct {
		injections int
		severity   [3]faultsim.Counts
		sdc        map[string]faultsim.Counts
		stats      faultsim.EvalStats
	}
	accs := make([]acc, len(plan.Units))
	for i := range accs {
		accs[i].sdc = make(map[string]faultsim.Counts)
	}
	pooled := make(map[string]faultsim.Counts)
	chain := sha256.New()
	for _, sum := range sums {
		if sum == nil {
			continue
		}
		a := &accs[sum.Unit]
		a.injections += sum.Injections
		for i, c := range sum.Severity {
			a.severity[i] = a.severity[i].Merge(c)
		}
		for name, c := range sum.SDC {
			a.sdc[name] = a.sdc[name].Merge(c)
			pooled[name] = pooled[name].Merge(c)
		}
		a.stats = a.stats.Merge(sum.Stats)
		fmt.Fprintf(chain, "%d:%s\n", sum.Index, sum.Digest)
	}

	for i, u := range plan.Units {
		cu := CampaignUnit{Unit: u.Name, Injections: accs[i].injections,
			Severity:   make(map[string]Interval),
			SDC:        make(map[string]Interval),
			ReEvalFrac: accs[i].stats.ReEvalFrac()}
		for sev, c := range accs[i].severity {
			cu.Severity[severityKeys[sev]] = interval(c)
		}
		for name, c := range accs[i].sdc {
			cu.SDC[name] = interval(c)
		}
		res.Units = append(res.Units, cu)
	}
	for name, c := range pooled {
		res.PooledSDC[name] = interval(c)
		res.Coverage[name] = 1 - interval(c).Frac
	}
	res.Digest = hex.EncodeToString(chain.Sum(nil))
	return res
}

// traceFill is the Fill of a campaign at limit tuples per unit: it decodes
// the operand trace from the content-addressed cache, or collects it (a
// full workload replay, which releases each unit's shards as the unit
// fills) and stores it. A corrupt entry leaves tr unchanged and is
// collected again. The trace is the service's most expensive reusable
// intermediate: every campaign at the same tuple limit, whatever its seed,
// shares one collection, however many need it at once.
func (r *runner) traceFill(limit int) func(context.Context, *trace.OperandTrace) error {
	key := CacheKey("trace", "v1", fmt.Sprintf("limit=%d", limit))
	return func(ctx context.Context, tr *trace.OperandTrace) error {
		_, _, err := r.artifacts.Resolve(ctx, "trace", key, tr.UnmarshalBinary, func(ctx context.Context) ([]byte, error) {
			if err := harness.FillOperands(ctx, r.pool, tr); err != nil {
				return nil, err
			}
			return tr.MarshalBinary()
		})
		return err
	}
}

// PerfUnitRow is one workload row of a perf payload.
type PerfUnitRow struct {
	Workload string `json:"workload"`
	// Slowdown maps scheme name → fractional slowdown over baseline; a
	// scheme the workload cannot run (inter-thread limits) is absent.
	Slowdown map[string]float64 `json:"slowdown"`
}

// PerfResult is the payload of a perf job.
type PerfResult struct {
	Kind    string             `json:"kind"`
	Schemes []string           `json:"schemes"`
	Rows    []PerfUnitRow      `json:"rows"`
	Mean    map[string]float64 `json:"mean_slowdown"`
	Text    string             `json:"text"`
}

// sweepOptions are the harness options of a perf or cpistack job: the
// flight recorder armed on every launch, and every cell resolved through
// the service's store.
func (r *runner) sweepOptions(spec Spec) harness.Options {
	return harness.Options{FlightRecord: true, MemModel: spec.MemModel, Cells: r.artifacts}
}

func (r *runner) runPerf(ctx context.Context, spec Spec) (*PerfResult, error) {
	schemes, err := harness.ParseSchemes(spec.Schemes)
	if err != nil {
		return nil, err
	}
	perf, err := harness.RunPerfCtxOpts(ctx, r.pool, schemes, !spec.SkipVerify, r.sweepOptions(spec))
	if err != nil {
		return nil, err
	}
	res := &PerfResult{Kind: KindPerf, Schemes: spec.Schemes,
		Mean: make(map[string]float64), Text: perf.Render("Performance sweep")}
	for _, row := range perf.Rows {
		pr := PerfUnitRow{Workload: row.Workload, Slowdown: make(map[string]float64)}
		for _, s := range perf.Schemes {
			if row.Stats[s] != nil {
				pr.Slowdown[harness.SchemeName(s)] = row.Slowdown(s)
			}
		}
		res.Rows = append(res.Rows, pr)
	}
	for _, s := range perf.Schemes {
		res.Mean[harness.SchemeName(s)] = perf.MeanSlowdown(s)
	}
	return res, nil
}

// HeadlineResult is the payload of a headline job.
type HeadlineResult struct {
	Kind   string                `json:"kind"`
	Tuples int                   `json:"tuples"`
	Seed   int64                 `json:"seed"`
	Rows   []harness.HeadlineRow `json:"rows"`
	Text   string                `json:"text"`
}

// runHeadline reads the pooled SDC tallies of the headline's campaign from
// the payload of the campaign spec of the same (tuples, seed).
func (r *runner) runHeadline(ctx context.Context, j *Job, spec Spec, replayed map[int]*ShardSummary) (*HeadlineResult, error) {
	raw, _, err := r.result(ctx, j, Spec{Kind: KindCampaign, Tuples: spec.Tuples, Seed: spec.Seed}, replayed)
	if err != nil {
		return nil, err
	}
	var campaign CampaignResult
	if err := json.Unmarshal(raw, &campaign); err != nil {
		return nil, fmt.Errorf("jobs: campaign result: %w", err)
	}
	pooledSDC := func(code ecc.Code) (frac, hi float64) {
		iv := campaign.PooledSDC[code.Name()]
		return iv.Frac, iv.Hi
	}
	rows, err := harness.HeadlineCtx(ctx, r.pool, pooledSDC, harness.Options{Cells: r.artifacts})
	if err != nil {
		return nil, err
	}
	return &HeadlineResult{Kind: KindHeadline, Tuples: spec.Tuples, Seed: spec.Seed,
		Rows: rows, Text: harness.RenderHeadline(rows)}, nil
}

// CPIStackResult is the payload of a cpistack job.
type CPIStackResult struct {
	Kind    string   `json:"kind"`
	Schemes []string `json:"schemes"`
	Text    string   `json:"text"`
	CSV     string   `json:"csv"`
}

func (r *runner) runCPIStack(ctx context.Context, spec Spec) (*CPIStackResult, error) {
	schemes, err := harness.ParseSchemes(spec.Schemes)
	if err != nil {
		return nil, err
	}
	perf, err := harness.RunPerfCtxOpts(ctx, r.pool, schemes, !spec.SkipVerify, r.sweepOptions(spec))
	if err != nil {
		return nil, err
	}
	st := harness.CPIStacks(perf)
	text := st.Render("CPI stacks") + "\n" + st.RenderAttribution("Slowdown attribution")
	csv := st.CSV()
	if spec.MemModel != "" {
		// An armed sweep also carries the memory-focused view; the flat
		// default has nothing to add (every mem share is zero).
		mc := harness.MemCPI(perf)
		text += "\n" + mc.Render("Memory CPI: idle share by hierarchy level")
		csv += "\n" + mc.CSV()
	}
	return &CPIStackResult{Kind: KindCPIStack, Schemes: spec.Schemes,
		Text: text, CSV: csv}, nil
}

// VerifyResult is the payload of a verify job.
type VerifyResult struct {
	Kind   string               `json:"kind"`
	Combos int                  `json:"combos"`
	Failed int                  `json:"failed"`
	Rows   []*harness.VerifyRow `json:"rows"`
	Text   string               `json:"text"`
}

func (r *runner) runVerify(ctx context.Context) (*VerifyResult, error) {
	vr, err := harness.RunVerifyCtx(ctx, r.pool, verify.Matrix())
	if err != nil {
		return nil, err
	}
	return &VerifyResult{Kind: KindVerify, Combos: vr.Combos, Failed: vr.Failed(),
		Rows: vr.Rows, Text: vr.Render("Differential verification")}, nil
}
