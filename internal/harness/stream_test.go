package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"swapcodes/internal/engine"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs"
	"swapcodes/internal/trace"
)

// serialCampaign is the reference the executor must reproduce: the whole
// trace collected first, then every shard of the plan in canonical order
// on one goroutine.
func serialCampaign(t *testing.T, tuples int, seed int64) *InjectionResult {
	t.Helper()
	pool := engine.New(1)
	tr, err := CollectOperandsCtx(context.Background(), pool, tuples)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanInjection(Units(), tr, tuples, seed)
	shards := make([]ShardResult, len(plan.Shards()))
	for j := range shards {
		if shards[j], err = plan.RunShard(context.Background(), pool, j); err != nil {
			t.Fatal(err)
		}
	}
	return plan.Assemble(shards, 0)
}

// TestStreamMatchesSerialReference: a streamed campaign, whose shards start
// as the tracer fills their units, gives the serial reference's injection
// streams and evaluator counts at every worker count. At 1 tuple two
// workloads launch; at 10,000 Fp-Add64 never fills (the workloads hold
// 3,840 of its tuples), so it is released only when collection ends.
func TestStreamMatchesSerialReference(t *testing.T) {
	const seed = 5
	for _, tuples := range []int{1, 1000, 2000, 10000} {
		ref := serialCampaign(t, tuples, seed)
		for _, workers := range []int{1, 2, 4} {
			got, err := RunInjectionCtx(context.Background(), engine.New(workers), tuples, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range ref.Units {
				g := got.Units[i]
				if !reflect.DeepEqual(g.Injections, u.Injections) || g.Evals != u.Evals {
					t.Errorf("tuples %d, workers %d: %s differs from the serial reference", tuples, workers, u.Unit.Name)
				}
			}
		}
	}
}

// releases lists, in the order they were recorded, the "release:<unit>"
// instants and "trace:<workload>" spans of a recorder. Both are written on
// the collecting goroutine, and a span after its launch ends, so a release
// listed before a trace span happened during or before that launch.
func releases(rec *obs.Recorder) string {
	var seq []string
	for _, e := range rec.Events() {
		if strings.HasPrefix(e.Name, "release:") || strings.HasPrefix(e.Name, "trace:") {
			seq = append(seq, e.Name)
		}
	}
	return strings.Join(seq, " ")
}

// TestStreamReleaseOrder pins when each unit's shards become runnable. At
// 2,000 tuples Fp-MAD32, Fp-Add32 and FxP-Add32 fill during lavaMD (bprop
// fills none), FxP-MAD32 during kmeans, then Fp-MAD64 and Fp-Add64 during
// snap. At 10,000 Fp-Add64 never fills and is released after snap, when
// collection ends.
func TestStreamReleaseOrder(t *testing.T) {
	pool, rec := engine.New(2), obs.NewRecorder()
	pool.SetObs(rec)
	if _, err := RunInjectionCtx(context.Background(), pool, 2000, 1); err != nil {
		t.Fatal(err)
	}
	want := "release:Fp-MAD32 release:Fp-Add32 release:FxP-Add32 trace:lavaMD trace:bprop " +
		"release:FxP-MAD32 trace:kmeans release:Fp-MAD64 release:Fp-Add64 trace:snap"
	if got := releases(rec); got != want {
		t.Errorf("2,000 tuples:\n got %s\nwant %s", got, want)
	}

	// The order depends on the trace alone, so skipping every shard shows
	// it at 10,000 tuples without the campaign.
	pool, rec = engine.New(2), obs.NewRecorder()
	pool.SetObs(rec)
	plan := NewCampaign(10000, 1)
	_, err := plan.Stream(context.Background(), pool, Stream{
		Fill: func(ctx context.Context, tr *trace.OperandTrace) error { return FillOperands(ctx, pool, tr) },
		Skip: func(int) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	got := releases(rec)
	if !strings.HasSuffix(got, "trace:snap release:Fp-Add64") || strings.Count(got, "release:") != 6 {
		t.Errorf("10,000 tuples: %s; want six releases, Fp-Add64's last, after trace:snap", got)
	}
}

// TestStreamRunsShardsDuringFill: at 2 workers, a fill that fills one unit
// and then waits until a shard of that unit has run returns, because the
// unit's shards are released to the other worker while the fill is still
// in progress. Were they held until the fill ended, the fill would time
// out and the test fail; no timing is asserted.
func TestStreamRunsShardsDuringFill(t *testing.T) {
	const tuples = 64
	plan := NewCampaign(tuples, 1)
	ran := make(chan struct{})
	fxpAdd := -1
	for i, u := range plan.Units {
		if u.Name == trace.UnitFxPAdd32 {
			fxpAdd = i
		}
	}
	_, err := plan.Stream(context.Background(), engine.New(2), Stream{
		Fill: func(ctx context.Context, tr *trace.OperandTrace) error {
			feed := tr.Func(1)
			for i := 0; i < tuples; i++ {
				feed(isa.IADD, false, 0, uint64(i), uint64(3*i), 0, 0)
			}
			select {
			case <-ran:
				return nil
			case <-time.After(time.Minute):
				return errors.New("no FxP-Add32 shard ran while the fill was in progress")
			}
		},
		Done: func(j int, _ ShardResult) error {
			if plan.Shards()[j].Unit == fxpAdd {
				select {
				case <-ran:
				default:
					close(ran)
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamSkipsAndPlaces: a shard the caller holds is not run and its
// slot stays zero, and every run shard lands at its own index, in the
// returned slice or, with Done set, in exactly one Done call (the slice
// then holds nothing). Skipping every shard runs none. This is the job
// server's resume path: its checkpoints are the skip set.
func TestStreamSkipsAndPlaces(t *testing.T) {
	const tuples = 600 // two shards per unit
	tr := trace.NewOperandTrace(tuples)
	ref := PlanInjection(Units(), tr, tuples, 3)
	skip := func(j int) bool { return j%3 == 1 }
	want := func(j int) ShardResult {
		res, err := ref.RunShard(context.Background(), engine.New(1), j)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, workers := range []int{1, 4} {
		plan := PlanInjection(Units(), tr, tuples, 3)
		out, err := plan.Stream(context.Background(), engine.New(workers), Stream{Skip: skip})
		if err != nil {
			t.Fatal(err)
		}
		for j, res := range out {
			if skip(j) && res.Injections != nil {
				t.Errorf("workers %d: skipped shard %d ran", workers, j)
			}
			if !skip(j) && !reflect.DeepEqual(res, want(j)) {
				t.Errorf("workers %d: shard %d differs from its own run", workers, j)
			}
		}

		plan = PlanInjection(Units(), tr, tuples, 3)
		got := make([][]ShardResult, len(plan.Shards()))
		var mu sync.Mutex
		out, err = plan.Stream(context.Background(), engine.New(workers), Stream{
			Skip: skip,
			Done: func(j int, res ShardResult) error {
				mu.Lock()
				got[j] = append(got[j], res)
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			switch {
			case out[j].Injections != nil:
				t.Errorf("workers %d: shard %d returned in the slice as well as to Done", workers, j)
			case skip(j) && got[j] != nil:
				t.Errorf("workers %d: skipped shard %d ran", workers, j)
			case !skip(j) && (len(got[j]) != 1 || !reflect.DeepEqual(got[j][0], want(j))):
				t.Errorf("workers %d: shard %d reached Done %d times or differs from its own run", workers, j, len(got[j]))
			}
		}
	}
	out, err := ref.Stream(context.Background(), engine.New(2), Stream{
		Skip: func(int) bool { return true },
		Done: func(j int, _ ShardResult) error { t.Errorf("shard %d ran with every shard skipped", j); return nil },
	})
	if err != nil || len(out) != len(ref.Shards()) {
		t.Fatalf("all skipped: %d slots, err %v", len(out), err)
	}
}

// TestStreamStopsOnError: the first error of a Done (here a checkpoint
// that cannot be written) stops the campaign and is returned; shards not
// yet started are not run.
func TestStreamStopsOnError(t *testing.T) {
	const tuples = 600
	plan := PlanInjection(Units(), trace.NewOperandTrace(tuples), tuples, 3)
	boom := errors.New("boom")
	calls := 0
	_, err := plan.Stream(context.Background(), engine.New(1), Stream{
		Done: func(j int, _ ShardResult) error { calls++; return boom },
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err %v after %d Done calls; want boom after 1", err, calls)
	}
}
