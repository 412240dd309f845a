package faultsim

import (
	"context"
	"reflect"
	"testing"

	"swapcodes/internal/arith"
	"swapcodes/internal/engine"
	"swapcodes/internal/gates"
	"swapcodes/internal/obs"
)

// TestCampaignIncrementalMatchesFull is the acceptance property of the
// incremental rewiring: for every arithmetic unit, a campaign on the cone
// evaluator produces an Injection stream bit-identical to the naive
// whole-netlist evaluator under the same seed — same tuples, same sites,
// same faulty words, same attempt counts.
func TestCampaignIncrementalMatchesFull(t *testing.T) {
	n := 192
	if testing.Short() {
		n = 48
	}
	for _, u := range arith.Units() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			t.Parallel()
			tuples := randomTuples(u, n, 11)
			inc := NewCampaign(u, 21)
			full := NewCampaign(u, 21)
			full.FullEval = true
			gotInc := inc.Run(tuples)
			gotFull := full.Run(tuples)
			if !reflect.DeepEqual(gotInc, gotFull) {
				t.Fatalf("incremental and full streams differ: %d vs %d injections", len(gotInc), len(gotFull))
			}
			si, sf := inc.Stats(), full.Stats()
			if si.Tuples != int64(n) || sf.Tuples != int64(n) {
				t.Fatalf("tuple counts %d/%d, want %d", si.Tuples, sf.Tuples, n)
			}
			if si.SiteEvals != sf.SiteEvals {
				t.Fatalf("attempt counts differ: %d vs %d", si.SiteEvals, sf.SiteEvals)
			}
			if f := sf.ReEvalFrac(); f != 1 {
				t.Errorf("full path re-eval fraction %v, want 1", f)
			}
			if f := si.ReEvalFrac(); f <= 0 || f >= 1 {
				t.Errorf("incremental re-eval fraction %v outside (0,1)", f)
			}
			// Every attempt recomputes at least its site and never more
			// than the site's cone; the naive path recomputes everything.
			if si.EvalNodes < si.SiteEvals || si.EvalNodes > si.ConeNodes {
				t.Errorf("incremental eval nodes %d outside [%d attempts, %d cone nodes]", si.EvalNodes, si.SiteEvals, si.ConeNodes)
			}
			if sf.EvalNodes != sf.ConeNodes {
				t.Errorf("full path eval nodes %d, want %d", sf.EvalNodes, sf.ConeNodes)
			}
		})
	}
}

// TestShardEvalCounters: shard stats pool every evaluator counter, and the
// shard recorder exports both the cone bound and the work done per unit.
func TestShardEvalCounters(t *testing.T) {
	u := arith.NewIAdd32()
	c := NewCampaign(u, 3)
	inj := c.Run(randomTuples(u, 100, 4))
	st := c.Stats()
	want := st
	want.Tuples *= 2
	want.BaselineNodes *= 2
	want.ConeNodes *= 2
	want.SiteEvals *= 2
	want.EvalNodes *= 2
	if got := st.Merge(st); got != want {
		t.Errorf("Merge = %+v, want %+v", got, want)
	}
	rec := obs.NewRecorder()
	RecordShard(rec, obs.TraceContext{}, u.Name, 0, rec.Now(), 100, inj, st)
	reg := rec.Registry()
	for name, want := range map[string]int64{
		"faultsim.cone_nodes": st.ConeNodes,
		"faultsim.eval_nodes": st.EvalNodes,
		"faultsim.site_evals": st.SiteEvals,
	} {
		if got := reg.Counter(obs.Name(name, "unit", u.Name)).Value(); got != want || want <= 0 {
			t.Errorf("%s{unit=%s} = %d, want %d > 0", name, u.Name, got, want)
		}
	}
}

// TestShardedCampaignIncrementalWorkerInvariance runs the sharded campaign
// incremental at 1, 4, and 16 workers against a naive single-worker
// reference: all four streams must be identical. This is the exact contract
// the harness driver depends on.
func TestShardedCampaignIncrementalWorkerInvariance(t *testing.T) {
	u := arith.NewIMAD32()
	tuples := randomTuples(u, 1200, 31)
	ref := &ShardedCampaign{Unit: u, MasterSeed: 41, FullEval: true}
	want, err := ref.Run(context.Background(), engine.New(1), tuples)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		s := &ShardedCampaign{Unit: u, MasterSeed: 41}
		got, err := s.Run(context.Background(), engine.New(workers), tuples)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-worker incremental stream differs from naive reference", workers)
		}
	}
}

// maskedUnit builds a unit whose primary output is wired straight to an
// input, with the only fault sites being dead gates that drive nothing: every
// injection attempt masks, by construction.
func maskedUnit() *arith.Unit {
	b := gates.NewBuilder("masked")
	in := b.Input()
	b.Not(in)                // dead gate: a fault site with an empty output cone
	b.FF(b.And(in, b.One())) // a dead FF behind a dead gate, same story
	b.Output(in)
	return &arith.Unit{
		Name:          "masked",
		Class:         "FxP",
		Circuit:       b.Build(),
		OperandWidths: []int{1},
		OutputWidth:   1,
		Ref:           func(ops []uint64) uint64 { return ops[0] & 1 },
	}
}

// TestCampaignAllAttemptsMask: a stream where every attempt masks must yield
// zero injections while exhausting MaxAttempts per tuple, on both evaluator
// paths, and still count the tuples it processed.
func TestCampaignAllAttemptsMask(t *testing.T) {
	u := maskedUnit()
	if got := len(u.Circuit.FaultSites()); got != 3 {
		t.Fatalf("masked unit has %d fault sites, want 3 (Not, And, FF)", got)
	}
	const n = 70 // spans a full lane batch plus a partial one
	tuples := make([][]uint64, n)
	for i := range tuples {
		tuples[i] = []uint64{uint64(i) & 1}
	}
	for _, fullEval := range []bool{false, true} {
		c := NewCampaign(u, 5)
		c.FullEval = fullEval
		inj := c.Run(tuples)
		if len(inj) != 0 {
			t.Fatalf("fullEval=%v: %d injections from a fully masked unit", fullEval, len(inj))
		}
		st := c.Stats()
		if st.Tuples != n {
			t.Errorf("fullEval=%v: %d tuples counted, want %d", fullEval, st.Tuples, n)
		}
		if want := int64(n) * int64(c.MaxAttempts); st.SiteEvals != want {
			t.Errorf("fullEval=%v: %d attempts, want MaxAttempts exhausted on every tuple (%d)", fullEval, st.SiteEvals, want)
		}
	}
}
