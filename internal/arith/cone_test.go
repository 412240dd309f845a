package arith

import (
	"math/rand"
	"testing"

	"swapcodes/internal/gates"
)

// TestConeEvaluatorEquivalenceAllUnits is the exhaustive equivalence sweep
// the campaign rewiring rests on: for every arithmetic unit and EVERY fault
// site of its netlist, the incremental evaluation of a 64-tuple random
// batch is bit-identical to the naive whole-netlist faulted evaluation — in
// the one lane a campaign attempt reads, and in all 64 lanes.
// Covering all sites matters more than covering many batches — each site
// exercises a distinct cone, while extra batches only re-randomize lane
// values (the fuzz target in internal/gates covers that axis).
func TestConeEvaluatorEquivalenceAllUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("full site sweep over the FP64 units is seconds-long")
	}
	for _, u := range Units() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(u.Name))))
			samples := make([][]uint64, 64)
			for i := range samples {
				ops := make([]uint64, len(u.OperandWidths))
				for j, w := range u.OperandWidths {
					ops[j] = rng.Uint64() >> (64 - uint(w))
				}
				samples[i] = ops
			}
			in := u.PackOperands(samples)
			full := gates.NewEvaluator(u.Circuit)
			inc := gates.NewConeEvaluator(u.Circuit)
			inc.Baseline(in)
			for _, site := range u.Circuit.FaultSites() {
				want := full.Eval(in, site)
				lane := uint64(1) << uint(site&63)
				got := inc.EvalSite(site, lane)
				for o := range want {
					if (got[o]^want[o])&lane != 0 {
						t.Fatalf("site %d output %d lane %d: cone %x, full %x", site, o, site&63, got[o], want[o])
					}
				}
				got = inc.EvalSite(site, ^uint64(0))
				for o := range want {
					if got[o] != want[o] {
						t.Fatalf("site %d output %d: cone %x, full %x", site, o, got[o], want[o])
					}
				}
			}
		})
	}
}

// TestUnitConeStats sanity-checks the per-unit statistics: every unit has a
// nonempty site set and a mean cone that is a small fraction of the netlist
// — the structural fact the incremental evaluator's speedup rests on.
func TestUnitConeStats(t *testing.T) {
	u := NewIAdd32()
	st := u.ConeStats()
	if st.Sites == 0 || st.NetNodes == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	if st.MeanFrac <= 0 || st.MeanFrac >= 1 {
		t.Errorf("mean cone fraction %v outside (0,1)", st.MeanFrac)
	}
	if st.MaxCone > st.NetNodes || float64(st.MaxCone) < st.MeanCone {
		t.Errorf("inconsistent cone sizes: %+v", st)
	}
	if again := NewIAdd32().ConeStats(); again != st {
		t.Errorf("ConeStats not deterministic: %+v then %+v", st, again)
	}
}
