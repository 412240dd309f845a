package sm_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
	"swapcodes/internal/verify"
	"swapcodes/internal/workloads"
)

// This file gates the partitioned round loop (DESIGN.md Section 13): the
// slot-cached fast path must be BIT-IDENTICAL to the full-rescan reference
// scheduler — same Stats, same CPI stack, same final memory — on every
// workload, under every scheme.

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
// default (slot-cached) scheduler to reproduce the reference scheduler's
// results exactly.
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
			st, mem := launchWith(t, w, k, s, sm.DefaultConfig())
			if !reflect.DeepEqual(st, refSt) {
				t.Errorf("%s/%v: Stats diverge from reference\n got %+v\nwant %+v",
					w.Name, s, st, refSt)
			}
			if !reflect.DeepEqual(st.CPIStack(w.Name, "x"), refSt.CPIStack(w.Name, "x")) {
				t.Errorf("%s/%v: CPI stack diverges from reference", w.Name, s)
			}
			if !reflect.DeepEqual(mem, refMem) {
				t.Errorf("%s/%v: final memory diverges from reference", w.Name, s)
			}
		}
	}
}

// TestSchedulerConfigDifferential runs the reference-versus-default
// differential over the non-default configurations of verify.SchedConfigs,
// on five workloads under the baseline and Swap-ECC: Stats and final memory
// must be identical. bfs, kmeans and mumm reach 64 resident warps, every
// bit of a set under a single scheduler; lavaMD reaches 32, and needle 8,
// two per partition under four schedulers.
func TestSchedulerConfigDifferential(t *testing.T) {
	for _, c := range verify.SchedConfigs() {
		for _, name := range []string{"lavaMD", "bfs", "needle", "kmeans", "mumm"} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []compiler.Scheme{compiler.Baseline, compiler.SwapECC} {
				k := compiler.MustApply(w.Kernel, s)
				ref := c.Cfg
				ref.Reference = true
				refSt, refMem := launchWith(t, w, k, s, ref)
				st, mem := launchWith(t, w, k, s, c.Cfg)
				if !reflect.DeepEqual(st, refSt) {
					t.Errorf("%s %s/%v: Stats diverge from reference\n got %+v\nwant %+v",
						c.Name, name, s, st, refSt)
				}
				if !reflect.DeepEqual(mem, refMem) {
					t.Errorf("%s %s/%v: final memory diverges from reference", c.Name, name, s)
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
		for _, reference := range []bool{false, true} {
			cfg := sm.DefaultConfig()
			cfg.Reference = reference
			cfg.Verify = true
			if _, err := w.NewGPU(cfg).Launch(compiler.MustApply(w.Kernel, compiler.SwapECC)); err != nil {
				t.Errorf("%s reference=%v: %v", name, reference, err)
			}
		}
	}
}

// secondPollCancel is a context that is live on its first Err call and
// cancelled on every later one. The round loop polls Err once every 4,096
// rounds, so a launch under it stops at its second poll: mid-flight, and at
// the same round on every run, whatever the host's speed.
type secondPollCancel struct {
	context.Context
	polls int
}

func (c *secondPollCancel) Err() error {
	c.polls++
	if c.polls == 1 {
		return nil
	}
	return context.Canceled
}

// TestParallelSMCancellation cancels a launch mid-flight and requires the
// partial-result contract to hold: the context error wrapped, stats short of
// the full run, a CPI stack that still partitions the cycles simulated, and
// the same partial stats on a second run.
func TestParallelSMCancellation(t *testing.T) {
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.NewGPU(sm.DefaultConfig()).Launch(w.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := func() *sm.Stats {
		ctx := &secondPollCancel{Context: context.Background()}
		st, err := w.NewGPU(sm.DefaultConfig()).LaunchContext(ctx, w.Kernel)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if st == nil {
			t.Fatal("no partial stats on cancellation")
		}
		return st
	}
	st := cancelled()
	if st.Cycles <= 0 || st.Cycles >= full.Cycles {
		t.Fatalf("cancelled run simulated %d cycles, want 0 < cycles < %d (the full run)",
			st.Cycles, full.Cycles)
	}
	if sum := st.CPIStack(w.Name, "x").Sum(); sum != st.Cycles {
		t.Errorf("partial CPI stack sums to %d, want the %d cycles simulated", sum, st.Cycles)
	}
	if again := cancelled(); !reflect.DeepEqual(again, st) {
		t.Errorf("cancellation is not deterministic:\n got %+v\nwant %+v", again, st)
	}
}
