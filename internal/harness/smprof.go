package harness

// The smprof experiment: a round-loop profile of the partitioned SM
// (DESIGN.md Sections 13-14). Every workload x scheme launch runs with a
// simprof.LaunchProf armed, and the report gives its rounds, the idle
// rounds the batch idle-skip fired on, the cycles those skips saved, and
// how evenly the partitions shared the issued instructions. Every value is
// a deterministic function of the launch.

import (
	"context"
	"fmt"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/workloads"
)

// SMProfRow is one workload x scheme profile row.
type SMProfRow struct {
	Workload      string `json:"workload"`
	Scheme        string `json:"scheme"`
	Cycles        int64  `json:"cycles"`
	Rounds        int64  `json:"rounds"`
	IdleRounds    int64  `json:"idle_rounds"`
	SkippedCycles int64  `json:"skipped_cycles"`
	// Imbalance is max/mean issued instructions across partitions.
	Imbalance float64 `json:"imbalance"`
}

// SkipPct is the fraction of simulated cycles the batch idle-skip never
// simulated round-by-round, in percent.
func (r *SMProfRow) SkipPct() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 100 * float64(r.SkippedCycles) / float64(r.Cycles)
}

// SMProfResult is a full profile sweep.
type SMProfResult struct {
	Rows []*SMProfRow `json:"rows"`
}

// RunSMProfCtx runs the profile sweep, one launch at a time in workload x
// scheme order.
func RunSMProfCtx(ctx context.Context, schemes []compiler.Scheme, opt Options) (*SMProfResult, error) {
	res := &SMProfResult{}
	for _, w := range workloads.All() {
		for _, s := range append([]compiler.Scheme{compiler.Baseline}, schemes...) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			k, err := compiler.Apply(w.Kernel, s)
			if err != nil {
				// Scheme inapplicable to this workload (inter-thread on
				// mm/snap); skip the row like the perf sweep does.
				continue
			}
			g := w.NewGPU(opt.smConfig())
			prof := &simprof.LaunchProf{}
			g.Prof = prof
			if _, err := g.LaunchContext(ctx, k); err != nil {
				return nil, fmt.Errorf("harness: smprof %s/%v: %w", w.Name, s, err)
			}
			res.Rows = append(res.Rows, &SMProfRow{
				Workload:      w.Name,
				Scheme:        SchemeName(s),
				Cycles:        prof.Cycles,
				Rounds:        prof.Rounds,
				IdleRounds:    prof.IdleRounds,
				SkippedCycles: prof.SkippedCycles,
				Imbalance:     prof.LoadImbalance(),
			})
		}
	}
	return res, nil
}

// Render prints the profile table.
func (r *SMProfResult) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-9s %-14s %10s %9s %8s %9s %7s %6s\n",
		"program", "scheme", "cycles", "rounds", "idle", "skipped", "skip", "imbal")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %-14s %10d %9d %8d %9d %6.1f%% %6.2f\n",
			row.Workload, row.Scheme, row.Cycles, row.Rounds, row.IdleRounds,
			row.SkippedCycles, row.SkipPct(), row.Imbalance)
	}
	return b.String()
}

// CSV renders the sweep as machine-readable rows.
func (r *SMProfResult) CSV() string {
	var b strings.Builder
	b.WriteString("workload,scheme,cycles,rounds,idle_rounds,skipped_cycles,imbalance\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%.3f\n",
			row.Workload, row.Scheme, row.Cycles, row.Rounds,
			row.IdleRounds, row.SkippedCycles, row.Imbalance)
	}
	return b.String()
}
