package harness

import (
	"context"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/sm"
	"swapcodes/internal/trace"
	"swapcodes/internal/workloads"
)

// DefaultPool is the engine pool used by the context-free driver entry
// points (RunPerf, RunInjection, Headline): all cores. Results are
// bit-identical at any worker count — see internal/engine — so the
// context-free APIs lose nothing by defaulting to full parallelism.
func DefaultPool() *engine.Pool { return engine.New(0) }

// CollectOperandsCtx traces every injection-source workload in parallel:
// each workload runs under its own tracer, and the per-workload traces are
// merged in the canonical workload order, which reproduces exactly the
// tuple stream of a serial collection (trace.OperandTrace.Merge). On
// cancellation the partial trace collected so far is returned with the
// error.
func CollectOperandsCtx(ctx context.Context, pool *engine.Pool, limit int) (*trace.OperandTrace, error) {
	progs := append([]*workloads.Workload{}, workloads.Rodinia()...)
	if snap, err := workloads.ByName("snap"); err == nil {
		progs = append(progs, snap)
	}
	traces, err := engine.Map(ctx, pool, len(progs), func(ctx context.Context, i int) (*trace.OperandTrace, error) {
		rec := pool.Recorder()
		start := rec.Now()
		tr := trace.NewOperandTrace(limit)
		g := progs[i].NewGPU(sm.DefaultConfig())
		g.Trace = tr.Func(8) // lowest 8 lanes per warp ≈ lowest threads
		if _, lerr := g.LaunchContext(ctx, progs[i].Kernel); lerr != nil {
			return nil, lerr
		}
		if rec != nil {
			operands := 0
			for _, n := range tr.Counts() {
				operands += n
			}
			rec.Span(rec.Process("harness"), rec.NextTID(), "trace:"+progs[i].Name, "driver",
				start, rec.Now()-start, map[string]any{"operands": operands})
		}
		return tr, nil
	})
	merged := trace.NewOperandTrace(limit)
	for _, tr := range traces {
		if tr != nil {
			merged.Merge(tr)
		}
	}
	return merged, err
}

// RunInjectionCtx is the parallel Figure 10/11 campaign driver: operand
// tuples are traced workload-parallel, then every unit's campaign is split
// into seed-derived shards (faultsim.ShardedCampaign) and all shards of all
// six units execute as one flat job list on the pool. For a given master
// seed the result is bit-identical at any worker count. On cancellation it
// returns the partial result (whole shards only, concatenated in order)
// with the error — always a valid, non-nil InjectionResult whose counts
// remain usable as Wilson-interval inputs, even when no shard completed.
func RunInjectionCtx(ctx context.Context, pool *engine.Pool, tuples int, seed int64) (*InjectionResult, error) {
	units := arith.Units()
	res := &InjectionResult{Tuples: tuples}
	for _, u := range units {
		res.Units = append(res.Units, &UnitInjection{Unit: u})
	}
	tr, err := CollectOperandsCtx(ctx, pool, tuples)
	if err != nil {
		// Partial-result contract: a cancelled trace yields an empty but
		// valid campaign result (zero injections per unit), not nil.
		return res, err
	}

	// The plan flattens (unit, shard) pairs into one job list rather than
	// nesting Map calls per unit, so a six-unit campaign saturates the pool
	// even when single units have few shards.
	plan := PlanInjection(units, tr, tuples, seed)
	campaignStart := time.Now()
	shards, err := engine.Map(ctx, pool, len(plan.Shards()), func(ctx context.Context, j int) (ShardResult, error) {
		return plan.RunShard(ctx, pool, j)
	})
	return plan.Assemble(shards, time.Since(campaignStart).Seconds()), err
}

// RunPerfCtxOpts executes the workload×scheme sweep with workloads in
// parallel: every workload row is one job, its baseline first, then each
// scheme, functionally verified when asked. With opt.Cells set, a row
// launches only the cells the store does not hold. Simulation is
// deterministic, so the sweep's numbers are independent of the worker
// count and of which cells came from the store. On cancellation the
// completed rows are returned with the error.
func RunPerfCtxOpts(ctx context.Context, pool *engine.Pool, schemes []compiler.Scheme, verify bool, opt Options) (*PerfResult, error) {
	all := workloads.All()
	rows, err := engine.Map(ctx, pool, len(all), func(ctx context.Context, i int) (*PerfRow, error) {
		rec := pool.Recorder()
		start := rec.Now()
		row, launched, rerr := runWorkload(ctx, all[i], schemes, verify, opt)
		if rerr == nil {
			pool.Tracker().AddItems(int64(len(schemes) + 1))
			rec.Span(rec.Process("harness"), rec.NextTID(), "perf:"+all[i].Name, "driver",
				start, rec.Now()-start, map[string]any{"schemes": len(schemes), "launched": launched})
		}
		return row, rerr
	})
	res := &PerfResult{Schemes: schemes}
	for _, row := range rows {
		if row != nil {
			res.Rows = append(res.Rows, row)
		}
	}
	return res, err
}
