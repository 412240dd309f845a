package harness

// The smprof experiment: a round-loop profile of the partitioned SM
// (DESIGN.md Sections 13-14), read from the Stats of a perf sweep. For each
// workload x scheme launch the report gives its rounds, the idle rounds the
// batch idle-skip fired on, the cycles those skips saved, and how evenly
// the partitions shared the issued instructions. Every value is a
// deterministic function of the launch.

import (
	"fmt"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/sm"
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

// SMProf profiles every launch of a perf sweep, in workload order, each
// row's baseline first and then its schemes in sweep order; a scheme the
// compiler refused for a workload has no row.
func SMProf(perf *PerfResult) *SMProfResult {
	res := &SMProfResult{}
	add := func(workload string, s compiler.Scheme, st *sm.Stats) {
		if st == nil {
			return
		}
		rounds := st.IssueCycles + st.IdleRounds
		res.Rows = append(res.Rows, &SMProfRow{
			Workload:      workload,
			Scheme:        SchemeName(s),
			Cycles:        st.Cycles,
			Rounds:        rounds,
			IdleRounds:    st.IdleRounds,
			SkippedCycles: st.Cycles - rounds,
			Imbalance:     imbalance(st),
		})
	}
	for _, r := range perf.Rows {
		add(r.Workload, compiler.Baseline, r.Baseline)
		for _, s := range perf.Schemes {
			add(r.Workload, s, r.Stats[s])
		}
	}
	return res
}

// imbalance is max/mean of the partitions' issued instructions: 1.0 is a
// perfectly balanced launch, 2.0 means the busiest partition carried twice
// the average.
func imbalance(st *sm.Stats) float64 {
	var sum, most int64
	for _, v := range st.PartitionInstrs {
		sum += v
		most = max(most, v)
	}
	if sum == 0 {
		return 1
	}
	return float64(most) / (float64(sum) / float64(len(st.PartitionInstrs)))
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
