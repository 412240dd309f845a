package sm_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// This file gates the partitioned round loop (DESIGN.md Section 13): the
// slot-cached fast path and the parallel phase A must be BIT-IDENTICAL to the
// full-rescan reference scheduler — same Stats, same CPI stack, same final
// memory — on every workload, under every scheme, at every worker count.

var diffWorkers = []int{0, 1, 2, 4}

// diffSchemes is the baseline, every Figure 12 scheme (the Swap-Predict
// kernels mix FlagPredicted and FlagShadow instructions), and InterThread.
var diffSchemes = []compiler.Scheme{
	compiler.Baseline, compiler.SWDup, compiler.SwapECC,
	compiler.SwapPredictAddSub, compiler.SwapPredictMAD, compiler.InterThread,
}

func launchWith(t *testing.T, w *workloads.Workload, k *isa.Kernel, s compiler.Scheme, cfg sm.Config) (*sm.Stats, []uint32) {
	t.Helper()
	g := w.NewGPU(cfg)
	st, err := g.Launch(k)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, s, err)
	}
	if err := w.Verify(g); err != nil {
		t.Fatalf("%s/%v: %v", w.Name, s, err)
	}
	return st, g.Mem
}

// TestParallelSMDifferential sweeps every workload x scheme and requires the
// default (slot-cached) scheduler and the parallel loop at 1/2/4 workers to
// reproduce the reference scheduler's results exactly.
func TestParallelSMDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	for _, w := range workloads.All() {
		for _, s := range diffSchemes {
			k, err := compiler.Apply(w.Kernel, s)
			if err != nil {
				continue // scheme not applicable (e.g. doubled CTA too large)
			}
			ref := sm.DefaultConfig()
			ref.Reference = true
			refSt, refMem := launchWith(t, w, k, s, ref)
			refStack := refSt.CPIStack(w.Name, "x")
			for _, workers := range diffWorkers {
				cfg := sm.DefaultConfig()
				cfg.Workers = workers
				st, mem := launchWith(t, w, k, s, cfg)
				if !reflect.DeepEqual(st, refSt) {
					t.Errorf("%s/%v workers=%d: Stats diverge from reference\n got %+v\nwant %+v",
						w.Name, s, workers, st, refSt)
				}
				if !reflect.DeepEqual(st.CPIStack(w.Name, "x"), refStack) {
					t.Errorf("%s/%v workers=%d: CPI stack diverges from reference", w.Name, s, workers)
				}
				if !reflect.DeepEqual(mem, refMem) {
					t.Errorf("%s/%v workers=%d: final memory diverges from reference", w.Name, s, workers)
				}
			}
		}
	}
}

// TestParallelSMDifferentialVerifyMode re-runs a slice of the sweep with the
// dynamic invariants on, so the idle-round audit (checkIdleRound) and the
// stall-accounting reconciliation actually execute against both scheduler
// paths.
func TestParallelSMDifferentialVerifyMode(t *testing.T) {
	for _, name := range []string{"lavaMD", "hspot", "srad_v2"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 4} {
			cfg := sm.DefaultConfig()
			cfg.Workers = workers
			cfg.Verify = true
			if _, err := w.NewGPU(cfg).Launch(compiler.MustApply(w.Kernel, compiler.SwapECC)); err != nil {
				t.Errorf("%s workers=%d: %v", name, workers, err)
			}
			ref := sm.DefaultConfig()
			ref.Reference = true
			ref.Verify = true
			if _, err := w.NewGPU(ref).Launch(compiler.MustApply(w.Kernel, compiler.SwapECC)); err != nil {
				t.Errorf("%s reference: %v", name, err)
			}
		}
	}
}

// TestParallelSMCancellation cancels a launch mid-flight at several worker
// counts and requires the partial-result contract to hold: non-nil stats,
// the context error wrapped, and a cycle count short of the full run.
func TestParallelSMCancellation(t *testing.T) {
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.NewGPU(sm.DefaultConfig()).Launch(w.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4} {
		cfg := sm.DefaultConfig()
		cfg.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Millisecond, cancel)
		st, err := w.NewGPU(cfg).LaunchContext(ctx, w.Kernel)
		timer.Stop()
		cancel()
		if err == nil {
			t.Logf("workers=%d: launch finished before the cancel landed", workers)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st == nil {
			t.Fatalf("workers=%d: no partial stats on cancellation", workers)
		}
		if st.Cycles >= full.Cycles {
			t.Errorf("workers=%d: cancelled run simulated %d cycles, full run %d",
				workers, st.Cycles, full.Cycles)
		}
	}
}

// TestParallelSMObsInOrderFallback: observability needs the in-order stream,
// so a launch with a recorder ignores Workers — and its stats must match the
// serial run's exactly.
func TestParallelSMObsInOrderFallback(t *testing.T) {
	w, err := workloads.ByName("hspot")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *sm.Stats {
		cfg := sm.DefaultConfig()
		cfg.Workers = workers
		g := w.NewGPU(cfg)
		g.Obs = obs.NewRecorder()
		st, err := g.Launch(w.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if got, want := run(4), run(0); !reflect.DeepEqual(got, want) {
		t.Errorf("obs launch diverges across Workers: got %+v want %+v", got, want)
	}
}
