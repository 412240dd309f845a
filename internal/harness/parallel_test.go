package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
)

// TestInjectionWorkerCountInvariance is the end-to-end determinism claim:
// the full Figure 10/11 campaign — operand tracing, sampling, sharded
// injection — produces bit-identical results whether it runs serially or on
// four workers.
func TestInjectionWorkerCountInvariance(t *testing.T) {
	const tuples, seed = 300, 7
	serial, err := RunInjectionCtx(context.Background(), engine.New(1), tuples, seed)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunInjectionCtx(context.Background(), engine.New(4), tuples, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Units) != len(par.Units) {
		t.Fatalf("unit counts differ: %d vs %d", len(serial.Units), len(par.Units))
	}
	for i := range serial.Units {
		if !reflect.DeepEqual(serial.Units[i].Injections, par.Units[i].Injections) {
			t.Errorf("%s: injection streams differ between 1 and 4 workers",
				serial.Units[i].Unit.Name)
		}
	}
	// The rendered figures — severity fractions, Wilson intervals, SDC
	// risks — must therefore match to the last byte.
	if serial.RenderFig10() != par.RenderFig10() {
		t.Error("Figure 10 output differs between worker counts")
	}
	if serial.RenderFig11() != par.RenderFig11() {
		t.Error("Figure 11 output differs between worker counts")
	}
	// The cone-stats table excludes wall-clock timing precisely so it can
	// hold to the same byte-identical contract.
	if serial.RenderConeStats() != par.RenderConeStats() {
		t.Error("cone stats output differs between worker counts")
	}
}

// TestConcurrentCampaignsShareUnits runs two campaigns with different
// seeds at once on one pool, both on the process's unit set. Run alone, as
// CI's race step runs it, the two make the process's first Units call, so
// the race detector watches the units and their cone tables being built
// while both campaigns wait on them. Each campaign must equal its own
// serial run, injection stream for injection stream, and Units must return
// the same units on every call.
func TestConcurrentCampaignsShareUnits(t *testing.T) {
	const tuples = 300
	seeds := [2]int64{11, 12}
	pool := engine.New(4)
	var got [2]*InjectionResult
	var errs [2]error
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RunInjectionCtx(context.Background(), pool, tuples, seed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	units := Units()
	for i, seed := range seeds {
		serial, err := RunInjectionCtx(context.Background(), engine.New(1), tuples, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k, u := range serial.Units {
			if u.Unit != units[k] || got[i].Units[k].Unit != units[k] {
				t.Errorf("seed %d: %s is not the process's unit", seed, u.Unit.Name)
			}
			if !reflect.DeepEqual(got[i].Units[k].Injections, u.Injections) {
				t.Errorf("seed %d: %s: concurrent injection stream differs from the serial one", seed, u.Unit.Name)
			}
		}
	}
	if reflect.DeepEqual(got[0].Units[0].Injections, got[1].Units[0].Injections) {
		t.Error("two seeds drew the same injection stream")
	}
	for i, u := range Units() {
		if u != units[i] {
			t.Errorf("Units()[%d] changed between calls", i)
		}
	}
}

// TestPerfWorkerCountInvariance: the workload×scheme sweep is a pure
// function of the (deterministic) simulator, so parallel rows must equal
// the serial sweep exactly.
func TestPerfWorkerCountInvariance(t *testing.T) {
	schemes := []compiler.Scheme{compiler.SwapECC}
	serial, err := RunPerfCtxOpts(context.Background(), engine.New(1), schemes, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPerfCtxOpts(context.Background(), engine.New(4), schemes, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render("t") != par.Render("t") {
		t.Error("perf sweep differs between 1 and 4 workers")
	}
}

// TestRunInjectionCtxPreCancelled: a dead context stops the driver before
// any simulation work happens — and still returns a valid, non-nil partial
// result. (Regression: a cancelled operand trace used to return nil, so
// callers that fed the partial campaign into Wilson intervals crashed.)
func TestRunInjectionCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunInjectionCtx(ctx, engine.New(2), 100, 1)
	if err == nil {
		t.Fatal("expected context error")
	}
	if res == nil {
		t.Fatal("cancelled campaign returned a nil result")
	}
	if len(res.Units) != 6 {
		t.Fatalf("partial result has %d units, want all 6", len(res.Units))
	}
	// Empty partial counts must remain usable as Wilson-interval inputs: the
	// zero-injection convention is frac 0 with the vacuous [0,1] interval.
	for _, u := range res.Units {
		for _, sev := range []faultsim.Severity{faultsim.OneBit, faultsim.TwoToThreeBits, faultsim.FourPlusBits} {
			if f, lo, hi := u.SeverityFrac(sev); f != 0 || lo != 0 || hi != 1 {
				t.Fatalf("%s %v: empty counts gave %v [%v,%v], want 0 [0,1]", u.Unit.Name, sev, f, lo, hi)
			}
		}
	}
	// The renderers consume the same partial result without panicking.
	_ = res.RenderFig10()
	_ = res.RenderFig11()
}

// TestRunInjectionCtxMidCampaignCancel cancels after a bounded number of
// shards: the partial result must contain whole shards only, and every count
// it does contain must match the corresponding prefix of an uncancelled run.
func TestRunInjectionCtxMidCampaignCancel(t *testing.T) {
	const tuples, seed = 300, 7
	full, err := RunInjectionCtx(context.Background(), engine.New(2), tuples, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel once any shard has completed; the exact cut point is timing
	// dependent, but whole-shard granularity makes every outcome a prefix.
	ctx, cancel := context.WithCancel(context.Background())
	pool := engine.New(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, rerr := RunInjectionCtx(ctx, pool, tuples, seed)
		if res == nil {
			t.Error("cancelled campaign returned a nil result")
			return
		}
		if rerr == nil {
			// The run won the race and completed: it must equal the full run.
			if res.RenderFig10() != full.RenderFig10() {
				t.Error("completed run differs from reference")
			}
			return
		}
		for i, u := range res.Units {
			if len(u.Injections) > len(full.Units[i].Injections) {
				t.Errorf("%s: partial run has more injections than the full run", u.Unit.Name)
			}
			// Whole-shard prefix property: every injection present matches
			// the full run's stream position-by-position.
			for j, in := range u.Injections {
				if in.Site != full.Units[i].Injections[j].Site || in.Faulty != full.Units[i].Injections[j].Faulty {
					t.Errorf("%s: partial injection %d diverges from the full stream", u.Unit.Name, j)
					break
				}
			}
			// Partial counts stay valid Wilson inputs.
			if _, lo, hi := u.SeverityFrac(faultsim.FourPlusBits); lo < 0 || hi > 1 || lo > hi {
				t.Errorf("%s: invalid Wilson interval [%v,%v] on partial counts", u.Unit.Name, lo, hi)
			}
		}
	}()
	cancel()
	<-done
}
