package sm_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// TestLaunchContextPreCancelled: a cancelled context stops the launch at
// the first scheduler round and reports partial stats.
func TestLaunchContextPreCancelled(t *testing.T) {
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := w.NewGPU(sm.DefaultConfig()).LaunchContext(ctx, w.Kernel)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st == nil {
		t.Fatal("no partial stats on cancellation")
	}
	full, err := w.NewGPU(sm.DefaultConfig()).Launch(w.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles >= full.Cycles {
		t.Errorf("cancelled run simulated %d cycles, full run %d", st.Cycles, full.Cycles)
	}
}

// TestLaunchContextTimeout: a deadline mid-simulation returns partial stats
// with DeadlineExceeded wrapped.
func TestLaunchContextTimeout(t *testing.T) {
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	st, err := w.NewGPU(sm.DefaultConfig()).LaunchContext(ctx, w.Kernel)
	if err == nil {
		t.Skip("machine simulated lavaMD inside 1µs")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if st == nil {
		t.Fatal("no partial stats on timeout")
	}
}

// TestLaunchContextBackgroundMatchesLaunch: threading a context does not
// perturb the timing model.
func TestLaunchContextBackgroundMatchesLaunch(t *testing.T) {
	w, err := workloads.ByName("pathf")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.NewGPU(sm.DefaultConfig()).Launch(w.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.NewGPU(sm.DefaultConfig()).LaunchContext(context.Background(), w.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.DynWarpInstrs != b.DynWarpInstrs {
		t.Errorf("Launch %d cyc / %d instrs vs LaunchContext %d / %d",
			a.Cycles, a.DynWarpInstrs, b.Cycles, b.DynWarpInstrs)
	}
}

// lateCancelCtx reads nil on its first Err call and context.Canceled on
// every later one: a context cancelled just after the round loop's first
// poll.
type lateCancelCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *lateCancelCtx) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestLaunchContextFailureAsContextEnds: a launch that fails within its
// first 4,096 rounds, while its context ends, is a failure, not a stop. It
// returns its own error and no stats (the loop never finalized them), and
// an armed flight recorder is stamped with the failure.
func TestLaunchContextFailureAsContextEnds(t *testing.T) {
	a := compiler.NewAsm("oob")
	r0, r1 := isa.Reg(0), isa.Reg(1)
	a.MovI(r0, 0)
	a.Ldg(r1, r0, 1<<20)
	a.Exit()
	k := a.MustBuild(1, 32, 8)
	g := sm.NewGPU(sm.DefaultConfig(), 256)
	fr := simprof.NewFlightRecorder(0)
	g.Flight = fr
	ctx := &lateCancelCtx{Context: context.Background()}
	st, err := g.LaunchContext(ctx, k)
	if ctx.calls.Load() == 0 {
		t.Fatal("the round loop never polled the context")
	}
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v, want the launch's out-of-bounds error", err)
	}
	if st != nil {
		t.Errorf("failed launch returned stats (%d cycles) as if its context had stopped it", st.Cycles)
	}
	if !fr.Failed() {
		t.Error("armed flight recorder not stamped with the launch failure")
	}
}
