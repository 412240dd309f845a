package harness

import (
	"context"
	"fmt"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/power"
	"swapcodes/internal/workloads"
)

// PowerRow is one workload/scheme power and energy estimate.
type PowerRow struct {
	Workload string
	Scheme   compiler.Scheme
	Watts    float64
	EnergyUJ float64
	// Rel* are relative to the workload's baseline.
	RelPower  float64
	RelEnergy float64
}

// PowerResult is the Figure 14 dataset: the two highest-utilization
// workloads (matrix multiply and SNAP) under each duplication scheme.
type PowerResult struct {
	Rows []PowerRow
}

// Fig14Schemes are the organizations Figure 14 charts.
func Fig14Schemes() []compiler.Scheme {
	return []compiler.Scheme{compiler.SWDup, compiler.SwapECC,
		compiler.SwapPredictAddSub, compiler.SwapPredictMAD}
}

// RunPower estimates power and energy for the high-utilization workloads
// using the paper's sampling procedure (90th percentile over coarse
// windows; the kernel occupies most of the application window for these
// two programs). Its launches are verified sweep cells resolved through
// opt.Cells: under flat memory they are the Figure 12 sweep's cells of
// those two workloads, so after that sweep through the same store it
// launches nothing.
func RunPower(ctx context.Context, pool *engine.Pool, opt Options) (*PowerResult, error) {
	var high []*workloads.Workload
	for _, w := range workloads.All() {
		if w.HighUtil {
			high = append(high, w)
		}
	}
	perf, err := runRows(ctx, pool, high, Fig14Schemes(), true, opt, &recorders{})
	if err != nil {
		return nil, err
	}
	model := power.DefaultModel()
	res := &PowerResult{}
	for _, row := range perf.Rows {
		baseW, baseE := model.Estimate(row.Baseline, 0.8, 66)
		for _, s := range perf.Schemes {
			st := row.Stats[s]
			if st == nil {
				return nil, fmt.Errorf("harness: power %s/%v: %s", row.Workload, s, row.Errs[s])
			}
			watts, energy := model.Estimate(st, 0.8, 66)
			res.Rows = append(res.Rows, PowerRow{
				Workload: row.Workload, Scheme: s,
				Watts: watts, EnergyUJ: energy,
				RelPower:  watts / baseW,
				RelEnergy: energy / baseE,
			})
		}
	}
	return res, nil
}

// Render prints the Figure 14 table.
func (r *PowerResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: estimated GPU power and energy (high-utilization workloads)\n")
	fmt.Fprintf(&b, "%-8s %-12s %9s %10s %10s %10s\n", "program", "scheme", "power(W)", "energy(uJ)", "rel-power", "rel-energy")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-12s %9.1f %10.1f %9.2fx %9.2fx\n",
			row.Workload, row.Scheme.String(), row.Watts, row.EnergyUJ, row.RelPower, row.RelEnergy)
	}
	return b.String()
}

// MaxRelPower returns the worst power overhead across rows (paper: <=15%).
func (r *PowerResult) MaxRelPower() float64 {
	m := 1.0
	for _, row := range r.Rows {
		if row.RelPower > m {
			m = row.RelPower
		}
	}
	return m
}
