package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/harness"
	"swapcodes/internal/trace"
)

// resumeTuples gives each unit two campaign shards (DefaultShardSize=512),
// so an interruption can fall between shards of one unit, not only between
// units.
const resumeTuples = 600

// runShards runs the given plan indices on the campaign executor,
// returning summaries placed by plan index (nil where not run).
func runShards(t *testing.T, pool *engine.Pool, plan *harness.InjectionPlan, idx []int) []*ShardSummary {
	t.Helper()
	refs := plan.Shards()
	units := plan.Units
	want := make(map[int]bool, len(idx))
	for _, j := range idx {
		want[j] = true
	}
	out := make([]*ShardSummary, len(refs))
	_, err := plan.Stream(context.Background(), pool, harness.Stream{
		Skip: func(j int) bool { return !want[j] },
		Done: func(j int, res harness.ShardResult) error {
			ref := refs[j]
			out[j] = summarizeShard(j, ref, units[ref.Unit].Name, units[ref.Unit].OutputWidth, res)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("run shards: %v", err)
	}
	return out
}

// TestCampaignResumeDeterminism is the checkpoint/resume contract: a
// campaign cancelled mid-run and restarted from its shard checkpoints
// produces bit-identical injection streams (per-shard SHA-256 digests) and
// Wilson confidence intervals (assembled result bytes) — at 1, 4, and 16
// workers, interleaving replayed and re-run shards arbitrarily.
func TestCampaignResumeDeterminism(t *testing.T) {
	units := harness.Units()
	tr := trace.NewOperandTrace(resumeTuples) // empty: Sample synthesizes deterministically
	spec := Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 1}

	// Reference: one uninterrupted single-worker run.
	refPlan := harness.PlanInjection(units, tr, resumeTuples, spec.Seed)
	n := len(refPlan.Shards())
	if n < 12 {
		t.Fatalf("want >=2 shards per unit, got %d total", n)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	refSums := runShards(t, engine.New(1), refPlan, all)
	refBytes, err := json.Marshal(assembleCampaign(spec, refPlan, refSums))
	if err != nil {
		t.Fatal(err)
	}

	// Keep raw streams of two shards for a direct (non-digest) comparison.
	refShard0, err := refPlan.RunShard(context.Background(), engine.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		pool := engine.New(workers)
		plan := harness.PlanInjection(units, tr, resumeTuples, spec.Seed)

		// "Cancelled mid-run": the first runs completed 5 shards — an
		// off-unit-boundary cut — and checkpointed them.
		cut := 5
		sums := runShards(t, pool, plan, all[:cut])
		done := make(map[int]bool)
		for i := 0; i < cut; i++ {
			done[i] = true
		}
		// "Restarted": a fresh plan resumes only the missing shards.
		resumed := harness.PlanInjection(units, tr, resumeTuples, spec.Seed)
		var missing []int
		for i := 0; i < n; i++ {
			if !done[i] {
				missing = append(missing, i)
			}
		}
		rest := runShards(t, pool, resumed, missing)
		for i := cut; i < n; i++ {
			sums[i] = rest[i]
		}

		for i, sum := range sums {
			if sum == nil {
				t.Fatalf("workers=%d: shard %d missing", workers, i)
			}
			if sum.Digest != refSums[i].Digest {
				t.Fatalf("workers=%d: shard %d stream digest diverged", workers, i)
			}
		}
		got, err := json.Marshal(assembleCampaign(spec, resumed, sums))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(refBytes) {
			t.Fatalf("workers=%d: assembled result (Wilson CIs) diverged from reference", workers)
		}

		// Digest equality is the scalable check; spot-check it is grounded
		// in actual stream equality.
		s0, err := plan.RunShard(context.Background(), pool, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s0.Injections, refShard0.Injections) {
			t.Fatalf("workers=%d: shard 0 raw injection stream diverged", workers)
		}
	}
}

// TestCampaignCancelKeepsWholeShards cancels a campaign mid-flight and
// checks the partial results honor shard atomicity: every completed shard
// matches the reference exactly; no torn shards.
func TestCampaignCancelKeepsWholeShards(t *testing.T) {
	units := harness.Units()
	tr := trace.NewOperandTrace(resumeTuples)
	plan := harness.PlanInjection(units, tr, resumeTuples, 1)
	refs := plan.Shards()
	pool := engine.New(4)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan struct{})
	var once sync.Once
	go func() {
		<-first
		cancel() // cancel as soon as the first shard completes
	}()
	got := make([]*ShardSummary, len(refs))
	_, err := plan.Stream(ctx, pool, harness.Stream{Done: func(j int, res harness.ShardResult) error {
		ref := refs[j]
		got[j] = summarizeShard(j, ref, units[ref.Unit].Name, units[ref.Unit].OutputWidth, res)
		once.Do(func() { close(first) })
		return nil
	}})
	if err == nil {
		// Fast machine finished everything before cancel landed — still a
		// valid (if weaker) pass; check everything instead.
		t.Log("campaign completed before cancellation")
	}

	refPlan := harness.PlanInjection(units, tr, resumeTuples, 1)
	for j, sum := range got {
		if sum == nil {
			continue // not completed before cancel: fine
		}
		res, rerr := refPlan.RunShard(context.Background(), engine.New(1), j)
		if rerr != nil {
			t.Fatal(rerr)
		}
		want := summarizeShard(j, refs[j], units[refs[j].Unit].Name, units[refs[j].Unit].OutputWidth, res)
		if sum.Digest != want.Digest || sum.Injections != want.Injections {
			t.Fatalf("shard %d: partial result does not match a clean run", j)
		}
	}
}

// TestResumeRerunsMismatchedShards: a replayed shard checkpoint is trusted
// only when its Unit, Shard and UnitName match the plan's shard at its
// index. A log whose three checkpoints each get one of them wrong, with
// counts no real shard has, resumes to the bytes of an uninterrupted run.
// The control, the same counts under the right identity, is trusted and
// changes the payload, so the comparison does see a trusted checkpoint.
func TestResumeRerunsMismatchedShards(t *testing.T) {
	spec := Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 1}
	want := runSpec(t, newService(t, Options{Workers: 2}), spec)

	plan := harness.NewCampaign(spec.Tuples, spec.Seed)
	refs := plan.Shards()
	bogus := func(idx int, wrong func(*ShardSummary)) *ShardSummary {
		ref := refs[idx]
		sum := &ShardSummary{Index: idx, Unit: ref.Unit, Shard: ref.Shard,
			UnitName: plan.Units[ref.Unit].Name, Injections: 1, Digest: "bogus",
			SDC: map[string]faultsim.Counts{}}
		sum.Severity[0] = faultsim.Counts{K: 1, N: 1}
		wrong(sum)
		return sum
	}
	resume := func(sums ...*ShardSummary) []byte {
		t.Helper()
		dir := t.TempDir()
		st, _, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendJob("j1", spec, ""); err != nil {
			t.Fatal(err)
		}
		for _, sum := range sums {
			if err := st.AppendShard("j1", sum); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		j, ok := newService(t, Options{StateDir: dir, Workers: 2}).Get("j1")
		if !ok {
			t.Fatal("job not replayed")
		}
		if st := waitTerminal(t, j, 2*time.Minute); st.State != StateDone {
			t.Fatalf("resumed job = %s: %s", st.State, st.Error)
		}
		return j.Result()
	}

	got := resume(
		bogus(0, func(s *ShardSummary) { s.Unit++ }),
		bogus(1, func(s *ShardSummary) { s.Shard++ }),
		bogus(2, func(s *ShardSummary) { s.UnitName += "-other" }),
	)
	if !bytes.Equal(got, want) {
		t.Errorf("resuming from mismatched checkpoints gave %d bytes that differ from an uninterrupted run's %d", len(got), len(want))
	}
	if bytes.Equal(resume(bogus(0, func(*ShardSummary) {})), want) {
		t.Error("a checkpoint with the right identity and bogus counts left the payload unchanged")
	}
}
