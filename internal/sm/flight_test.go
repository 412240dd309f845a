package sm_test

import (
	"bytes"
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// This file gates the flight recorder (DESIGN.md Section 14): armed on a
// failing launch it must capture a black-box bundle whose decision streams
// are a deterministic function of the launch — two identical launches
// record identical streams — because replay relies on exactly that.

// streams extracts the comparable payload of a recorder: every partition's
// decision ring plus the merge ring, oldest-first.
func streams(fr *simprof.FlightRecorder) ([][]simprof.Decision, []simprof.Decision, error) {
	b, err := simprof.ReadBundle(bytes.NewReader(fr.Bundle()))
	if err != nil {
		return nil, nil, err
	}
	return b.Partitions, b.Merge, nil
}

// TestFlightBundleCycleBudget forces a deterministic failure (a cycle
// budget below the kernel's real cycle count) twice and requires: the
// recorder stamps the failure, the bundle round-trips, and both launches
// record the same decision streams and failure point.
func TestFlightBundleCycleBudget(t *testing.T) {
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	k := compiler.MustApply(w.Kernel, compiler.SwapECC)

	var refParts [][]simprof.Decision
	var refMerge []simprof.Decision
	var refMeta simprof.Meta
	for run := 0; run < 2; run++ {
		cfg := sm.DefaultConfig()
		cfg.MaxCycles = 2000
		g := w.NewGPU(cfg)
		fr := simprof.NewFlightRecorder(0)
		fr.Annotate(w.Name, 0)
		g.Flight = fr
		_, lerr := g.Launch(k)
		if lerr == nil {
			t.Fatalf("run %d: cycle budget of 2000 did not trip", run)
		}
		if !fr.Failed() {
			t.Fatalf("run %d: recorder not stamped on launch failure", run)
		}
		m := fr.Meta()
		if m.Kernel != k.Name || m.Scheme != k.Scheme || m.Workload != "lavaMD" {
			t.Fatalf("run %d: bundle identity wrong: %+v", run, m)
		}
		if m.Reason != lerr.Error() {
			t.Fatalf("run %d: reason %q, launch error %q", run, m.Reason, lerr)
		}
		if len(m.Config) == 0 {
			t.Fatalf("run %d: bundle carries no config", run)
		}
		parts, merge, err := streams(fr)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(merge) == 0 {
			t.Fatalf("run %d: merge ring empty on a multi-round launch", run)
		}
		if run == 0 {
			refParts, refMerge, refMeta = parts, merge, m
			continue
		}
		if !reflect.DeepEqual(parts, refParts) {
			t.Errorf("partition decision streams differ between identical launches")
		}
		if !reflect.DeepEqual(merge, refMerge) {
			t.Errorf("merge decision stream differs between identical launches")
		}
		if m.Cycle != refMeta.Cycle || m.Reason != refMeta.Reason {
			t.Errorf("failure point (%d, %q) differs from the first launch's (%d, %q)",
				m.Cycle, m.Reason, refMeta.Cycle, refMeta.Reason)
		}
	}
}

// TestFlightBundleNotStampedOnSuccess runs a clean launch with the recorder
// armed: no failure stamp, but the rings must still hold the run's tail.
func TestFlightBundleNotStampedOnSuccess(t *testing.T) {
	w, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	k := compiler.MustApply(w.Kernel, compiler.Baseline)
	g := w.NewGPU(sm.DefaultConfig())
	fr := simprof.NewFlightRecorder(0)
	g.Flight = fr
	if _, err := g.Launch(k); err != nil {
		t.Fatal(err)
	}
	if fr.Failed() {
		t.Fatal("recorder stamped failed on a clean launch")
	}
	// The rings still hold the tail of the run: armed-but-idle recorders
	// are how the black box is cheap enough to leave on.
	parts, _, err := streams(fr)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		t.Fatal("armed recorder captured no scheduler decisions")
	}
}

// TestParallelSMDifferentialTelemetry re-runs a slice of the differential
// sweep with BOTH simprof surfaces armed (LaunchProf and FlightRecorder) and
// requires Stats and final memory to stay bit-identical to the bare run —
// the telemetry must observe the loop, never perturb it — and two armed
// launches to record the same profile and decision streams.
func TestParallelSMDifferentialTelemetry(t *testing.T) {
	for _, name := range []string{"lavaMD", "hspot", "mm"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := compiler.MustApply(w.Kernel, compiler.SwapECC)
		refSt, refMem := launchWith(t, w, k, compiler.SwapECC, sm.DefaultConfig())

		var refProf *simprof.LaunchProf
		var refParts [][]simprof.Decision
		var refMerge []simprof.Decision
		for run := 0; run < 2; run++ {
			g := w.NewGPU(sm.DefaultConfig())
			prof := &simprof.LaunchProf{}
			fr := simprof.NewFlightRecorder(0)
			g.Prof = prof
			g.Flight = fr
			st, err := g.Launch(k)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if err := w.Verify(g); err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if !reflect.DeepEqual(st, refSt) {
				t.Errorf("%s run %d: Stats diverge with telemetry armed", name, run)
			}
			if !reflect.DeepEqual(g.Mem, refMem) {
				t.Errorf("%s run %d: memory diverges with telemetry armed", name, run)
			}
			if prof.Cycles != refSt.Cycles || prof.Rounds == 0 {
				t.Errorf("%s run %d: prof cycles=%d rounds=%d, stats cycles=%d",
					name, run, prof.Cycles, prof.Rounds, refSt.Cycles)
			}
			if got := sm.DefaultConfig().Schedulers; len(prof.Partitions) != got {
				t.Errorf("%s run %d: prof has %d partitions, config has %d",
					name, run, len(prof.Partitions), got)
			}
			parts, merge, err := streams(fr)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if run == 0 {
				refProf, refParts, refMerge = prof, parts, merge
				continue
			}
			if !reflect.DeepEqual(prof, refProf) {
				t.Errorf("%s: launch profile differs between identical launches\n got %+v\nwant %+v",
					name, prof, refProf)
			}
			if !reflect.DeepEqual(parts, refParts) || !reflect.DeepEqual(merge, refMerge) {
				t.Errorf("%s: decision streams differ between identical launches", name)
			}
		}
	}
}
