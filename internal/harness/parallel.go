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

// CollectOperandsCtx traces the injection-source workloads one after
// another, in workload order, into one trace, and skips every workload
// whose code can feed only units that are already full
// (trace.OperandTrace.CanGrow). The result is, byte for byte, the trace
// that per-workload traces concatenated in workload order and cut at the
// limit would give: a skipped workload could add no tuple, and a launched
// one appends its tuples in execution order until its units fill. At
// 2,000 tuples 4 of the 14 workloads launch. The pool supplies only the
// recorder, which gets one "trace:<workload>" span per launch. On
// cancellation the trace as far as it got is returned with the error.
func CollectOperandsCtx(ctx context.Context, pool *engine.Pool, limit int) (*trace.OperandTrace, error) {
	tr := trace.NewOperandTrace(limit)
	feed := tr.Func(8) // lowest 8 lanes per warp ≈ lowest threads
	rec := pool.Recorder()
	for _, w := range injectionSources() {
		if !tr.CanGrow(w.Kernel) {
			continue
		}
		start, before := rec.Now(), operandCount(tr)
		g := w.NewGPU(sm.DefaultConfig())
		g.Trace = feed
		if _, err := g.LaunchContext(ctx, w.Kernel); err != nil {
			return tr, err
		}
		if rec != nil {
			rec.Span(rec.Process("harness"), rec.NextTID(), "trace:"+w.Name, "driver",
				start, rec.Now()-start, map[string]any{"operands": operandCount(tr) - before})
		}
	}
	return tr, nil
}

// injectionSources lists the workloads operands are traced from, in
// collection order: the Rodinia programs, then SNAP (see CollectOperands).
func injectionSources() []*workloads.Workload {
	progs := append([]*workloads.Workload{}, workloads.Rodinia()...)
	if snap, err := workloads.ByName("snap"); err == nil {
		progs = append(progs, snap)
	}
	return progs
}

// operandCount is the number of tuples a trace holds over all units.
func operandCount(tr *trace.OperandTrace) int {
	n := 0
	for _, c := range tr.Counts() {
		n += c
	}
	return n
}

// RunInjectionCtx is the parallel Figure 10/11 campaign driver. Two pool
// jobs run side by side first: the operand trace (CollectOperandsCtx) and
// the six units' cone tables (gates.Circuit's fan-out CSR and cone sizes),
// which the first shard of each unit would otherwise build while the other
// workers wait on it (Fp-MAD64's take about 100 ms on a 2-vCPU Xeon VM).
// Then every unit's campaign is split into seed-derived shards
// (faultsim.ShardedCampaign) and all shards of all six units execute as
// one flat job list on the pool. For a given master seed the result is
// bit-identical at any worker count. On cancellation it returns the
// partial result (whole shards only, concatenated in order) with the
// error — always a valid, non-nil InjectionResult whose counts remain
// usable as Wilson-interval inputs, even when no shard completed.
func RunInjectionCtx(ctx context.Context, pool *engine.Pool, tuples int, seed int64) (*InjectionResult, error) {
	units := arith.Units()
	res := &InjectionResult{Tuples: tuples}
	for _, u := range units {
		res.Units = append(res.Units, &UnitInjection{Unit: u})
	}
	var tr *trace.OperandTrace
	err := pool.Run(ctx, []engine.Job{
		{Name: "trace", Run: func(ctx context.Context) (err error) {
			tr, err = CollectOperandsCtx(ctx, pool, tuples)
			return err
		}},
		{Name: "cones", Run: func(ctx context.Context) error {
			for _, u := range units {
				if err := ctx.Err(); err != nil {
					return err
				}
				u.ConeStats() // builds the circuit's cone tables once
			}
			return nil
		}},
	})
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
