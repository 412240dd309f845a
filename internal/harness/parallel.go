package harness

import (
	"context"
	"sync"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/sm"
	"swapcodes/internal/trace"
	"swapcodes/internal/workloads"
)

// units is the process's unit set, built on first use.
var units = sync.OnceValue(arith.Units)

// Units returns the process's unit set: the six arithmetic units of
// Figures 10 and 11, synthesized by the first call and shared by every
// campaign after it. Netlists never change, and a unit's cone tables are
// read-only once built, so concurrent campaigns share them safely.
// arith.Units builds a fresh set instead.
func Units() []*arith.Unit { return units() }

// CollectOperandsCtx runs un-duplicated workloads under the value tracer
// and returns the operand trace. The paper traces the Rodinia 2.3
// programs, targets the lowest-numbered threads, and bounds the trace size
// (Section IV-A); we additionally trace SNAP because it is the workload
// with substantial double-precision arithmetic — without it the FP64 units
// would be injected with synthetic operands instead of real ones.
//
// The workloads are traced one after another, in workload order, into one
// trace, and every workload whose code can feed only units that are
// already full is skipped
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
// collection order: the Rodinia programs, then SNAP (see CollectOperandsCtx).
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

// PlanCampaign plans a Figure 10/11 campaign over the process's unit set
// (Units). Two pool jobs run side by side: collect, which supplies the
// operand trace, and the unit set's cone tables (gates.Circuit's fan-out
// CSR and cone sizes), which the first shard of each unit would otherwise
// build while the other workers wait on it (Fp-MAD64's take about 100 ms
// on a 2-vCPU Xeon VM). Only the process's first campaign builds the units
// and their tables; every later one finds them built. On error the plan is
// nil.
func PlanCampaign(ctx context.Context, pool *engine.Pool, tuples int, seed int64,
	collect func(context.Context) (*trace.OperandTrace, error)) (*InjectionPlan, error) {
	var tr *trace.OperandTrace
	err := pool.Run(ctx, []engine.Job{
		{Name: "trace", Run: func(ctx context.Context) (err error) {
			tr, err = collect(ctx)
			return err
		}},
		{Name: "cones", Run: func(ctx context.Context) error {
			for _, u := range Units() {
				if err := ctx.Err(); err != nil {
					return err
				}
				u.ConeStats() // builds the circuit's cone tables once
			}
			return nil
		}},
	})
	if err != nil {
		return nil, err
	}
	return PlanInjection(Units(), tr, tuples, seed), nil
}

// RunInjectionCtx is the parallel Figure 10/11 campaign driver. It plans
// the campaign (PlanCampaign, collecting the trace with CollectOperandsCtx)
// and then executes every unit's seed-derived shards
// (faultsim.ShardedCampaign) for all six units as one flat job list on the
// pool. For a given master seed the result is bit-identical at any worker
// count. On cancellation it returns the partial result (whole shards only,
// concatenated in order) with the error — always a valid, non-nil
// InjectionResult whose counts remain usable as Wilson-interval inputs,
// even when no shard completed.
func RunInjectionCtx(ctx context.Context, pool *engine.Pool, tuples int, seed int64) (*InjectionResult, error) {
	plan, err := PlanCampaign(ctx, pool, tuples, seed, func(ctx context.Context) (*trace.OperandTrace, error) {
		return CollectOperandsCtx(ctx, pool, tuples)
	})
	if err != nil {
		// Partial-result contract: a cancelled plan yields an empty but
		// valid campaign result (zero injections per unit), not nil.
		return (&InjectionPlan{Units: Units(), Tuples: tuples}).Assemble(nil, 0), err
	}

	// The plan flattens (unit, shard) pairs into one job list rather than
	// nesting Map calls per unit, so a six-unit campaign saturates the pool
	// even when single units have few shards.
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
	return runRows(ctx, pool, workloads.All(), schemes, verify, opt)
}

// runRows is RunPerfCtxOpts over the given workloads: one row each, in
// order, with one "perf:<workload>" span per row that counts the cells the
// row launched.
func runRows(ctx context.Context, pool *engine.Pool, ws []*workloads.Workload, schemes []compiler.Scheme, verify bool, opt Options) (*PerfResult, error) {
	rows, err := engine.Map(ctx, pool, len(ws), func(ctx context.Context, i int) (*PerfRow, error) {
		rec := pool.Recorder()
		start := rec.Now()
		row, launched, rerr := runWorkload(ctx, ws[i], schemes, verify, opt)
		if rerr == nil {
			pool.Tracker().AddItems(int64(len(schemes) + 1))
			rec.Span(rec.Process("harness"), rec.NextTID(), "perf:"+ws[i].Name, "driver",
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
