package harness

import (
	"context"
	"testing"

	"swapcodes/internal/engine"
	"swapcodes/internal/sm"
)

// TestRunSMProf profiles the verified Figure 12 sweep, as -exp smprof does,
// checks the rows are internally consistent, and pins the table and CSV
// byte for byte: every column is a deterministic function of the launches.
func TestRunSMProf(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	perf, err := RunPerfCtxOpts(context.Background(), engine.New(2), Fig12Schemes(), true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := SMProf(perf)
	// 15 workloads x {baseline, the four Figure 12 schemes}.
	if len(res.Rows) != 75 {
		t.Fatalf("rows = %d, want 75", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Cycles <= 0 || r.Rounds <= 0 {
			t.Errorf("%s/%s: empty profile: %+v", r.Workload, r.Scheme, r)
		}
		if r.Imbalance < 1 {
			t.Errorf("%s/%s: imbalance %v < 1 (max/mean cannot undershoot the mean)",
				r.Workload, r.Scheme, r.Imbalance)
		}
		if r.SkippedCycles < 0 || r.SkippedCycles >= r.Cycles {
			t.Errorf("%s/%s: skipped %d of %d cycles", r.Workload, r.Scheme, r.SkippedCycles, r.Cycles)
		}
		if r.IdleRounds > r.Rounds {
			t.Errorf("%s/%s: idle rounds %d exceed rounds %d", r.Workload, r.Scheme, r.IdleRounds, r.Rounds)
		}
	}
	golden(t, "smprof", res.Render("SM round-loop profile: rounds, idle-skip and partition balance"))
	golden(t, "smprof_csv", res.CSV())
}

func TestSMProfRowDerived(t *testing.T) {
	r := &SMProfRow{Cycles: 1000, SkippedCycles: 250}
	if got := r.SkipPct(); got != 25 {
		t.Errorf("SkipPct = %v, want 25", got)
	}
	zero := &SMProfRow{}
	if zero.SkipPct() != 0 {
		t.Error("zero-cycle SkipPct should be 0")
	}
	if got := imbalance(&sm.Stats{PartitionInstrs: []int64{300, 100}}); got != 1.5 {
		t.Errorf("imbalance = %v, want 1.5 (max 300 / mean 200)", got)
	}
	if got := imbalance(&sm.Stats{PartitionInstrs: []int64{0, 0}}); got != 1 {
		t.Errorf("imbalance of an empty launch = %v, want 1", got)
	}
}
