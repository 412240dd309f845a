package harness

import (
	"context"
	"sync"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/isa"
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
// and returns the operand trace (FillOperands into a fresh trace of limit
// tuples per unit). The paper traces the Rodinia 2.3 programs, targets the
// lowest-numbered threads, and bounds the trace size (Section IV-A); we
// additionally trace SNAP because it is the workload with substantial
// double-precision arithmetic — without it the FP64 units would be
// injected with synthetic operands instead of real ones. On cancellation
// the trace as far as it got is returned with the error.
func CollectOperandsCtx(ctx context.Context, pool *engine.Pool, limit int) (*trace.OperandTrace, error) {
	tr := trace.NewOperandTrace(limit)
	return tr, FillOperands(ctx, pool, tr)
}

// FillOperands traces the injection sources into tr, on the calling
// goroutine. The workloads are traced one after another, in workload order,
// and every workload whose code can feed only units that are already full
// is skipped (trace.OperandTrace.CanGrow). The result is, byte for byte,
// the trace that per-workload traces concatenated in workload order and cut
// at the limit would give: a skipped workload could add no tuple, and a
// launched one appends its tuples in execution order until its units fill.
// At 2,000 tuples 4 of the 14 workloads launch. The pool supplies only the
// recorder, which gets one "trace:<workload>" span per launch, with the
// tuples the launch added ("operands") and the lanes the SM handed the
// tracer ("observed").
func FillOperands(ctx context.Context, pool *engine.Pool, tr *trace.OperandTrace) error {
	feed := tr.Func(8) // lowest 8 lanes per warp ≈ lowest threads
	rec := pool.Recorder()
	observed := 0
	count := func(op isa.Opcode, wide bool, lane int, a, b, c, result uint64) bool {
		observed++
		return feed(op, wide, lane, a, b, c, result)
	}
	for _, w := range injectionSources() {
		if !tr.CanGrow(w.Kernel) {
			continue
		}
		start, before, seen := rec.Now(), operandCount(tr), observed
		g := w.NewGPU(sm.DefaultConfig())
		g.Trace = count
		if _, err := g.LaunchContext(ctx, w.Kernel); err != nil {
			return err
		}
		if rec != nil {
			rec.Span(rec.Process("harness"), rec.NextTID(), "trace:"+w.Name, "driver",
				start, rec.Now()-start, map[string]any{"operands": operandCount(tr) - before, "observed": observed - seen})
		}
	}
	return nil
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

// RunInjectionCtx is the Figure 10/11 campaign driver: a campaign over the
// process's unit set (NewCampaign) streamed while FillOperands collects its
// trace, so each unit's shards start as soon as the tracer fills the unit.
// For a given master seed the result is bit-identical at any worker count.
// Its CampaignSeconds is the wall time of the whole stream, trace
// collection included, since the two overlap. On cancellation it returns
// the partial result (whole shards only, concatenated in order) with the
// error — always a valid, non-nil InjectionResult whose counts remain
// usable as Wilson-interval inputs, even when no shard completed.
func RunInjectionCtx(ctx context.Context, pool *engine.Pool, tuples int, seed int64) (*InjectionResult, error) {
	plan := NewCampaign(tuples, seed)
	start := time.Now()
	shards, err := plan.Stream(ctx, pool, Stream{Fill: func(ctx context.Context, tr *trace.OperandTrace) error {
		return FillOperands(ctx, pool, tr)
	}})
	return plan.Assemble(shards, time.Since(start).Seconds()), err
}

// RunPerfCtxOpts executes the workload×scheme sweep: every workload's
// baseline and each scheme, functionally verified when asked, one pool job
// per cell (runRows). With opt.Cells set, only the cells the store does not
// hold are launched. Simulation is deterministic, so the sweep's numbers
// are independent of the worker count, of the order cells ran in and of
// which cells came from the store. On cancellation the rows whose cells
// all completed are returned with the error.
func RunPerfCtxOpts(ctx context.Context, pool *engine.Pool, schemes []compiler.Scheme, verify bool, opt Options) (*PerfResult, error) {
	return runRows(ctx, pool, workloads.All(), schemes, verify, opt, &recorders{})
}

// runRows is RunPerfCtxOpts over the given workloads, with flight
// recorders from frs under opt.FlightRecord. Its pool jobs are the cells,
// column by column: every baseline, then each scheme's column, so
// neighbouring jobs are cells of different workloads and the workers
// seldom run two cells of the largest one at once (DESIGN.md §7). The rows
// are assembled by index, each in workload order. Every cell resolved gets
// one "perf:<workload>" span that says whether it launched the cell and
// counts the rounds the launch ran.
func runRows(ctx context.Context, pool *engine.Pool, ws []*workloads.Workload, schemes []compiler.Scheme, verify bool, opt Options, frs *recorders) (*PerfResult, error) {
	cols := append([]compiler.Scheme{compiler.Baseline}, schemes...)
	cfg := opt.smConfig()
	n := len(ws)
	type cell struct {
		out  cellOutcome
		done bool
	}
	cells, err := engine.Map(ctx, pool, len(cols)*n, func(ctx context.Context, i int) (cell, error) {
		w, s := ws[i%n], cols[i/n]
		rec := pool.Recorder()
		start := rec.Now()
		out, ran, err := opt.Cells.resolve(ctx, CellKey(w.Name, s, cfg, verify),
			func(ctx context.Context) (cellOutcome, error) {
				return launchCell(ctx, w, s, verify, opt, frs)
			})
		if err != nil {
			return cell{}, err
		}
		launched, rounds := 0, int64(0)
		if ran {
			launched = 1
			if out.Stats != nil {
				rounds = out.Stats.IssueCycles + out.Stats.IdleRounds
			}
		}
		pool.Tracker().AddItems(1)
		rec.Span(rec.Process("harness"), rec.NextTID(), "perf:"+w.Name, "driver", start, rec.Now()-start,
			map[string]any{"scheme": SchemeName(s), "launched": launched, "rounds": rounds})
		return cell{out: out, done: true}, nil
	})
	res := &PerfResult{Schemes: schemes}
rows:
	for r, w := range ws {
		row := &PerfRow{Workload: w.Name,
			Stats: make(map[compiler.Scheme]*sm.Stats),
			Errs:  make(map[compiler.Scheme]string)}
		for c, s := range cols {
			switch out := cells[c*n+r]; {
			case !out.done:
				continue rows
			case out.out.Refused != "":
				row.Errs[s] = out.out.Refused
			case s == compiler.Baseline:
				row.Baseline = out.out.Stats
			default:
				row.Stats[s] = out.out.Stats
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, err
}
