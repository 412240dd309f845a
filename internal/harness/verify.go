package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"swapcodes/internal/engine"
	"swapcodes/internal/verify"
	"swapcodes/internal/workloads"
)

// VerifyRow is one workload's differential-verification outcome across the
// scheme x optimization matrix.
type VerifyRow struct {
	Workload string
	Passed   int
	Skipped  int      // inapplicable combos (inter-thread CTA/shuffle limits)
	Failures []string // "combo: reason", in matrix order
}

// VerifyResult is a full differential-verification sweep: every workload
// kernel checked against the unprotected baseline under every combo of
// verify.Matrix (lint + architectural-state equivalence + SM invariants).
type VerifyResult struct {
	Combos int
	Rows   []*VerifyRow
}

// Failed counts combo cells that failed verification across all workloads.
func (r *VerifyResult) Failed() int {
	n := 0
	for _, row := range r.Rows {
		n += len(row.Failures)
	}
	return n
}

// Render prints the verification table plus any failure details.
func (r *VerifyResult) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-9s %6s %6s %6s\n", "program", "pass", "skip", "FAIL")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %6d %6d %6d\n",
			row.Workload, row.Passed, row.Skipped, len(row.Failures))
	}
	if n := r.Failed(); n > 0 {
		fmt.Fprintf(&b, "%d FAILING CELLS:\n", n)
		for _, row := range r.Rows {
			for _, f := range row.Failures {
				fmt.Fprintf(&b, "  %s: %s\n", row.Workload, f)
			}
		}
	} else {
		fmt.Fprintf(&b, "all %d combos x %d workloads verified (or inapplicable)\n",
			r.Combos, len(r.Rows))
	}
	return b.String()
}

// RunVerifyCtx runs the differential verifier workload-parallel: each job
// replays one workload's baseline once, then checks every combo against it.
// Pass/fail outcomes are deterministic, so results are independent of the
// worker count. Verification failures land in VerifyRow.Failures — the
// returned error reports only infrastructure problems (cancellation,
// baseline compile/run errors).
func RunVerifyCtx(ctx context.Context, pool *engine.Pool, combos []verify.Combo) (*VerifyResult, error) {
	all := workloads.All()
	rows, err := engine.Map(ctx, pool, len(all), func(ctx context.Context, i int) (*VerifyRow, error) {
		rec := pool.Recorder()
		start := rec.Now()
		w := all[i]
		row := &VerifyRow{Workload: w.Name}
		s := verify.NewSubject(w.Kernel, w.MemWords, w.Setup)
		for _, c := range combos {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			switch cerr := s.Check(c); {
			case cerr == nil:
				row.Passed++
			case errors.Is(cerr, verify.ErrNotApplicable):
				row.Skipped++
			default:
				row.Failures = append(row.Failures, fmt.Sprintf("%s: %v", c.Name(), cerr))
			}
		}
		pool.Tracker().AddItems(int64(len(combos)))
		rec.Span(rec.Process("harness"), rec.NextTID(), "verify:"+w.Name, "driver",
			start, rec.Now()-start, map[string]any{
				"combos": len(combos), "failed": len(row.Failures)})
		return row, nil
	})
	res := &VerifyResult{Combos: len(combos)}
	for _, row := range rows {
		if row != nil {
			res.Rows = append(res.Rows, row)
		}
	}
	return res, err
}
