package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/harness"
	"swapcodes/internal/isa"
	"swapcodes/internal/jobs"
	"swapcodes/internal/memmodel"
	"swapcodes/internal/obs"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/trace"
	"swapcodes/internal/workloads"
)

// The traced phase. It measures every layer metric the same way whatever
// --workload names: each round rebuilds one op of fig12, memcpi and campaign
// from the layer calls themselves, in harness order, with a span around
// each call, and runs the same op untraced beside it (the difference is the
// tracing overhead; the two digests must agree). Direct probes then time the
// SM on chosen kernels, the memory tier, the flight recorder and the job
// store, and one batch of the serve workload on the job server gives the job
// layers. Spans are kept in memory and written as a Chrome trace at the end.

// tracer records one span per layer call.
type tracer struct {
	rec *obs.Recorder
	pid int64
}

// span runs f as a span named after the layer it calls; op ties the spans
// of one rebuilt op together.
func (t *tracer) span(tid int64, name string, op string, f func()) time.Duration {
	ts := t.rec.Now()
	start := time.Now()
	f()
	d := time.Since(start)
	t.rec.Span(t.pid, tid, name, "layer", ts, d.Microseconds(), map[string]any{"op": op})
	return d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracedPerf rebuilds one Figure 12 sweep (harness.RunPerfCtxOpts: each
// workload row on the pool, baseline then each scheme compiled, launched on
// a fresh GPU and verified) and adds its layer samples. It returns the op's
// rendered output and wall time.
func tracedPerf(ctx context.Context, pool *engine.Pool, t *tracer, s samples, workload, op string) (string, time.Duration, error) {
	mem := ""
	if workload == "memcpi" {
		mem = "sectored"
	}
	cfg := sm.DefaultConfig()
	cfg.MemModel = mem
	all := workloads.All()
	schemes := append([]compiler.Scheme{compiler.Baseline}, harness.Fig12Schemes()...)
	type rowOut struct {
		row                          *harness.PerfRow
		compile                      []time.Duration
		newgpu, launch, verify, wall time.Duration
	}
	opTID := t.rec.NextTID()
	ts := t.rec.Now()
	start := time.Now()
	rows, err := engine.Map(ctx, pool, len(all), func(ctx context.Context, i int) (*rowOut, error) {
		w := all[i]
		tid := t.rec.NextTID()
		out := &rowOut{compile: make([]time.Duration, len(schemes)),
			row: &harness.PerfRow{Workload: w.Name, Stats: map[compiler.Scheme]*sm.Stats{}, Errs: map[compiler.Scheme]string{}}}
		rowStart := time.Now()
		for si, sc := range schemes {
			var k *isa.Kernel
			var err error
			out.compile[si] = t.span(tid, "compiler.apply", op, func() { k, err = compiler.Apply(w.Kernel, sc) })
			if err != nil {
				out.row.Errs[sc] = err.Error()
				continue
			}
			var g *sm.GPU
			out.newgpu += t.span(tid, "sm.newgpu", op, func() { g = w.NewGPU(cfg) })
			var st *sm.Stats
			out.launch += t.span(tid, "sm.launch", op, func() { st, err = g.LaunchContext(ctx, k) })
			if err == nil {
				out.verify += t.span(tid, "workloads.verify", op, func() { err = w.Verify(g) })
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", w.Name, sc, err)
			}
			if sc == compiler.Baseline {
				out.row.Baseline = st
			} else {
				out.row.Stats[sc] = st
			}
		}
		out.wall = time.Since(rowStart)
		t.rec.Span(t.pid, tid, "harness.row:"+w.Name, "layer", t.rec.Now()-out.wall.Microseconds(),
			out.wall.Microseconds(), map[string]any{"op": op})
		return out, nil
	})
	if err != nil {
		return "", 0, err
	}
	perf := &harness.PerfResult{Schemes: harness.Fig12Schemes()}
	for _, r := range rows {
		perf.Rows = append(perf.Rows, r.row)
	}
	var text string
	render := t.span(opTID, "harness.render", op, func() {
		if mem == "" {
			text = renderFig12(perf)
		} else {
			text = renderMemCPI(perf)
		}
	})
	wall := time.Since(start)
	t.rec.Span(t.pid, opTID, "op:"+workload, "op", ts, wall.Microseconds(), map[string]any{"op": op})

	var busy, slowest, newgpu, launch, verify time.Duration
	compile := make([]time.Duration, len(schemes))
	var cycles, winstr int64
	var mst memmodel.Stats
	for _, r := range rows {
		busy += r.wall
		slowest = max(slowest, r.wall)
		newgpu += r.newgpu
		launch += r.launch
		verify += r.verify
		for i, d := range r.compile {
			compile[i] += d
		}
		for _, st := range append([]*sm.Stats{r.row.Baseline}, statsOf(r.row)...) {
			cycles += st.Cycles
			winstr += st.DynWarpInstrs
			if st.Mem != nil {
				mst.LoadSectors += st.Mem.LoadSectors
				mst.StoreSectors += st.Mem.StoreSectors
				mst.L1Hits += st.Mem.L1Hits
				mst.L1Misses += st.Mem.L1Misses
				mst.MSHRFullEvents += st.Mem.MSHRFullEvents
			}
		}
	}
	s.add("engine.busy_frac."+workload, busy.Seconds()/(float64(pool.Workers())*wall.Seconds()))
	s.add("engine.critical_path_frac."+workload, slowest.Seconds()/wall.Seconds())
	s.add("harness.render_ms."+workload, ms(render))
	if mem == "" {
		for i, sc := range schemes {
			s.add("compiler.apply_us."+harness.SchemeName(sc), float64(compile[i].Nanoseconds())/1e3)
		}
		s.add("sm.launch_ms", ms(launch))
		s.add("sm.newgpu_ms", ms(newgpu))
		s.add("workloads.verify_ms", ms(verify))
		s.add("sm.cycles", float64(cycles))
		s.add("sm.winstr", float64(winstr))
	} else {
		s.add("memmodel.sectors", float64(mst.LoadSectors+mst.StoreSectors))
		s.add("memmodel.l1_hit_frac", float64(mst.L1Hits)/float64(max(mst.L1Hits+mst.L1Misses, 1)))
		s.add("memmodel.mshr_full_events", float64(mst.MSHRFullEvents))
	}
	return text, wall, nil
}

// statsOf lists a row's scheme launches in Figure 12 order.
func statsOf(row *harness.PerfRow) []*sm.Stats {
	var out []*sm.Stats
	for _, sc := range harness.Fig12Schemes() {
		if st := row.Stats[sc]; st != nil {
			out = append(out, st)
		}
	}
	return out
}

// tracedCampaign rebuilds one campaign op (harness.RunInjectionCtx: fresh
// units, operand trace, plan, every shard on the pool, assembly) plus the
// cone statistics its rendering computes, and adds its layer samples.
func tracedCampaign(ctx context.Context, pool *engine.Pool, t *tracer, s samples, seed int64, op string) (string, time.Duration, error) {
	opTID := t.rec.NextTID()
	ts := t.rec.Now()
	start := time.Now()
	var units []*arith.Unit
	s.add("arith.units_ms", ms(t.span(opTID, "arith.units", op, func() { units = arith.Units() })))
	var tr *trace.OperandTrace
	var err error
	s.add("trace.collect_ms", ms(t.span(opTID, "trace.collect", op, func() {
		tr, err = harness.CollectOperandsCtx(ctx, pool, campaignTuples)
	})))
	if err != nil {
		return "", 0, err
	}
	var plan *harness.InjectionPlan
	s.add("harness.plan_ms", ms(t.span(opTID, "harness.plan", op, func() {
		plan = harness.PlanInjection(units, tr, campaignTuples, seed)
	})))
	durs := make([]float64, len(plan.Shards()))
	shardStart := time.Now()
	shards, err := engine.Map(ctx, pool, len(plan.Shards()), func(ctx context.Context, j int) (harness.ShardResult, error) {
		var res harness.ShardResult
		var err error
		durs[j] = ms(t.span(t.rec.NextTID(), "faultsim.shard", op, func() { res, err = plan.RunShard(ctx, pool, j) }))
		return res, err
	})
	if err != nil {
		return "", 0, err
	}
	inj := plan.Assemble(shards, time.Since(shardStart).Seconds())
	s.add("gates.cone_build_ms", ms(t.span(opTID, "gates.cone_build", op, func() {
		for _, u := range units {
			u.ConeStats()
		}
	})))
	if err := verifyCampaign(inj, campaignTuples); err != nil {
		return "", 0, err
	}
	var text string
	s.add("harness.render_ms.campaign", ms(t.span(opTID, "harness.render", op, func() { text = renderCampaign(inj) })))
	wall := time.Since(start)
	t.rec.Span(t.pid, opTID, "op:campaign", "op", ts, wall.Microseconds(), map[string]any{"op": op})

	var busy float64
	for _, d := range durs {
		busy += d
	}
	// The re-evaluation fraction pooled over units: nodes re-evaluated over
	// the nodes whole-netlist evaluations would have cost.
	var n int
	var coneNodes, fullNodes float64
	for _, u := range inj.Units {
		n += len(u.Injections)
		coneNodes += float64(u.Evals.ConeNodes)
		fullNodes += float64(u.Evals.SiteEvals) * float64(u.Evals.NetNodes)
	}
	s.add("faultsim.shards_ms", busy)
	s.add("faultsim.shard_ms_p50", median(durs))
	s.add("faultsim.injections", float64(n))
	s.add("faultsim.reeval_frac", coneNodes/fullNodes)
	return text, wall, nil
}

// opPair runs workload's op i untraced and rebuilt with spans, in an order
// that alternates with i so slow drift cancels, checks that both produce
// the golden (or at least the same) output, and adds the tracing overhead.
// Both copies start settled, as the untraced runs' ops do.
func opPair(ctx context.Context, pool *engine.Pool, t *tracer, s samples, g *golden, seed int64, workload string, i int) error {
	op, err := closedLoopOp(workload, seed)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s#%d", workload, i)
	plain := func() (string, time.Duration, error) {
		start := time.Now()
		out, err := op(ctx, pool, i)
		return out, time.Since(start), err
	}
	traced := func() (string, time.Duration, error) {
		if workload == "campaign" {
			return tracedCampaign(ctx, pool, t, s, campaignOpSeed(seed, i), name)
		}
		return tracedPerf(ctx, pool, t, s, workload, name)
	}
	timed := func(run func() (string, time.Duration, error)) (string, float64, error) {
		if err := settle(); err != nil {
			return "", 0, err
		}
		out, d, err := run()
		if err != nil {
			return "", 0, fmt.Errorf("%s: %w", name, err)
		}
		return out, d.Seconds(), nil
	}
	first, second := plain, traced
	if i%2 == 1 {
		first, second = traced, plain
	}
	out1, t1, err := timed(first)
	if err != nil {
		return err
	}
	out2, t2, err := timed(second)
	if err != nil {
		return err
	}
	dp, dt, tp, tt := digest([]byte(out1)), digest([]byte(out2)), t1, t2
	if i%2 == 1 {
		dp, dt, tp, tt = dt, dp, t2, t1
	}
	if dp != dt {
		return fmt.Errorf("%s: traced rebuild digest %s differs from the op's %s", name, dt[:16], dp[:16])
	}
	if want := g.digest(workload, seed, i); want != "" && dp != want {
		return fmt.Errorf("%s: output digest %s, want %s", name, dp[:16], want[:16])
	}
	s.add("bench.trace_overhead_frac."+workload, tt/tp-1)
	return nil
}

// probeLaunch times one launch of kernel k of workload w (without NewGPU)
// and verifies its output.
func probeLaunch(ctx context.Context, w *workloads.Workload, k *isa.Kernel, cfg sm.Config, flight bool) (time.Duration, *sm.Stats, error) {
	g := w.NewGPU(cfg)
	if flight {
		fr := simprof.NewFlightRecorder(0)
		fr.Annotate(w.Name, 0)
		g.Flight = fr
	}
	start := time.Now()
	st, err := g.LaunchContext(ctx, k)
	d := time.Since(start)
	if err == nil {
		err = w.Verify(g)
	}
	return d, st, err
}

// probePairs launches kernel k of w reps times under each of two set-ups,
// in adjacent pairs whose order alternates, so a comparison of the two
// sides is made between neighbours in time. It returns each side's launch
// times in ns and the second side's stats.
func probePairs(ctx context.Context, w *workloads.Workload, k *isa.Kernel, reps int,
	a, b sm.Config, bFlight bool) (da, db []float64, st *sm.Stats, err error) {
	for r := 0; r < reps; r++ {
		for _, second := range []bool{r%2 == 1, r%2 == 0} {
			cfg, flight := a, false
			if second {
				cfg, flight = b, bFlight
			}
			d, stats, err := probeLaunch(ctx, w, k, cfg, flight)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("probe %s/%s: %w", w.Name, k.Scheme, err)
			}
			if second {
				db, st = append(db, float64(d.Nanoseconds())), stats
			} else {
				da = append(da, float64(d.Nanoseconds()))
			}
		}
	}
	return da, db, st, nil
}

// smProbes times serial launches of the probe kernels: host time per
// simulated cycle and per warp-instruction, the flight recorder's cost on
// real launches (armed against disarmed), and the memory tier's cost per
// sector (sectored against flat).
func smProbes(ctx context.Context, s samples, reps int) error {
	flat := sm.DefaultConfig()
	sectored := sm.DefaultConfig()
	sectored.MemModel = "sectored"
	for _, name := range layerKernels {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		for _, sname := range probeSchemes {
			sc, err := harness.SchemeByName(sname)
			if err != nil {
				return err
			}
			k, err := compiler.Apply(w.Kernel, sc)
			if err != nil {
				return err
			}
			disarmed, armed, st, err := probePairs(ctx, w, k, reps, flat, flat, true)
			if err != nil {
				return err
			}
			m := median(disarmed)
			s.add("sm.ns_per_cycle."+name+"."+sname, m/float64(st.Cycles))
			s.add("sm.ns_per_winstr."+name+"."+sname, m/float64(st.DynWarpInstrs))
			if sname == "swap-ecc" {
				var ratios []float64
				for r := range armed {
					ratios = append(ratios, armed[r]/disarmed[r]-1)
				}
				s.add("simprof.flight_overhead_frac."+name, median(ratios))
			}
		}
	}
	for _, name := range memKernels {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		k, err := compiler.Apply(w.Kernel, compiler.Baseline)
		if err != nil {
			return err
		}
		dFlat, dSectored, st, err := probePairs(ctx, w, k, reps, flat, sectored, false)
		if err != nil {
			return err
		}
		sectors := float64(max(st.Mem.LoadSectors+st.Mem.StoreSectors, 1))
		var per []float64
		for r := range dFlat {
			per = append(per, (dSectored[r]-dFlat[r])/sectors)
		}
		s.add("memmodel.ns_per_sector."+name, median(per))
	}
	return nil
}

// memProbes replays synthetic load streams straight into the memory tier:
// coalesced (each warp load covers 4 consecutive sectors, streaming) and
// scattered (32 random sectors per load over a footprint far beyond L2).
func memProbes(s samples, seed int64) {
	const loads = 20000
	rng := rand.New(rand.NewSource(seed))
	streams := map[string][][]int32{}
	for i := 0; i < loads; i++ {
		co := make([]int32, 4)
		for j := range co {
			co[j] = int32((4*i + j) % (1 << 15))
		}
		sc := make([]int32, 32)
		for j := range sc {
			sc[j] = rng.Int31n(1 << 21)
		}
		streams["coalesced"] = append(streams["coalesced"], co)
		streams["scattered"] = append(streams["scattered"], sc)
	}
	for _, name := range []string{"coalesced", "scattered"} {
		h := memmodel.New(memmodel.DefaultConfig())
		sectors := 0
		start := time.Now()
		for i, ld := range streams[name] {
			h.AccessLoad(int64(4*i), ld)
			sectors += len(ld)
		}
		s.add("memmodel.access_ns_per_sector."+name, float64(time.Since(start).Nanoseconds())/float64(sectors))
	}
}

// jobsProbes times the job store's disk paths directly: a WAL shard
// checkpoint append, and a disk-tier CAS put and (cold) get.
func jobsProbes(dir string, s samples, seed int64) error {
	const n = 200
	defer os.RemoveAll(dir)
	store, _, err := jobs.OpenStore(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	sum := &jobs.ShardSummary{Unit: 1, UnitName: "FxP-MAD32", Injections: faultsim.DefaultShardSize,
		SDC: map[string]faultsim.Counts{}, Digest: digest([]byte("shard"))}
	for _, c := range harness.Fig11Codes() {
		sum.SDC[c.Name()] = faultsim.Counts{K: 3, N: faultsim.DefaultShardSize}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		sum.Index, sum.Shard = i, i
		if err := store.AppendShard("probe", sum); err != nil {
			store.Close()
			return err
		}
	}
	s.add("jobs.wal_append_us", float64(time.Since(start).Nanoseconds())/1e3/n)
	if err := store.Close(); err != nil {
		return err
	}

	casDir := filepath.Join(dir, "cas")
	put, err := jobs.NewCache(casDir, nil)
	if err != nil {
		return err
	}
	payload := make([]byte, 8<<10) // the size of a campaign job's result
	rand.New(rand.NewSource(seed)).Read(payload)
	keys := make([]string, n)
	start = time.Now()
	for i := range keys {
		keys[i] = jobs.CacheKey("probe", fmt.Sprint(i))
		if err := put.Put("probe", keys[i], payload); err != nil {
			return err
		}
	}
	s.add("jobs.cas_put_us", float64(time.Since(start).Nanoseconds())/1e3/n)
	get, err := jobs.NewCache(casDir, nil) // empty memory tier: every get reads disk
	if err != nil {
		return err
	}
	start = time.Now()
	for _, k := range keys {
		if _, ok := get.Get("probe", k); !ok {
			return fmt.Errorf("cas probe: key %s missing", k[:8])
		}
	}
	s.add("jobs.cas_get_us", float64(time.Since(start).Nanoseconds())/1e3/n)
	return nil
}

// measureLayers is the traced phase: one serve batch, then rounds of
// rebuilt ops and probes until the window is spent (at least one round).
func measureLayers(ctx context.Context, cfg config, g *golden) (*report, error) {
	r := newReport(layerMetrics())
	s := samples{}
	rec := obs.NewRecorder()
	t := &tracer{rec: rec, pid: rec.Process("swapbench")}
	start := time.Now()

	// One batch of the serve mix holds every job class.
	serveCfg := cfg
	serveCfg.window = serveInterval
	sb, err := newServeBench(ctx, serveCfg, g)
	if err != nil {
		return nil, err
	}
	run, err := sb.run(ctx)
	if cerr := sb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, o := range run.outs {
		r.attempted++
		if o.err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "swapbench: serve: %v\n", o.err)
		}
	}
	run.layerSamples(s)
	r.ident.Jobs = len(run.outs)

	pool := engine.New(cfg.nproc)
	for i := 0; i == 0 || time.Since(start) < cfg.window; i++ {
		for _, w := range opWorkloads {
			r.attempted++
			if err := opPair(ctx, pool, t, s, g, cfg.seed, w, i); err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "swapbench: %v\n", err)
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
			}
		}
		r.attempted++
		if err := smProbes(ctx, s, 3); err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "swapbench: %v\n", err)
		}
		memProbes(s, cfg.seed+int64(i))
		r.attempted++
		if err := jobsProbes(filepath.Join(cfg.outDir, fmt.Sprintf("probe-%d", os.Getpid())), s, cfg.seed); err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "swapbench: %v\n", err)
		}
		r.ident.Ops++
	}
	for _, d := range r.defs {
		if xs, ok := s[d.name]; ok {
			r.set(d.name, median(xs), len(xs))
		}
	}
	if err := writeTrace(rec, cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// writeTrace writes the traced phase's spans as a Chrome trace.
func writeTrace(rec *obs.Recorder, cfg config) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "swapbench: wrote %s\n", path)
	return nil
}
