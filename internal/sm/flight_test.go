package sm_test

import (
	"bytes"
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/harness"
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
// sweep with a whole-launch FlightRecorder armed and requires Stats and
// final memory to stay bit-identical to the bare run — the telemetry must
// observe the loop, never perturb it — and two armed launches to record the
// same decision streams. The streams must also agree with the round counts
// in Stats: one merge decision per issue cycle, one skip per idle round and
// one issue decision per instruction a partition issued. The two faulted
// launches arm every decision kind the observation path reads: one resident
// decision per warp, one retiring issue per warp, one due per pipeline DUE
// (five, under Swap-ECC) and the SW-Dup BPT trap.
func TestParallelSMDifferentialTelemetry(t *testing.T) {
	for _, c := range []struct {
		workload string
		scheme   compiler.Scheme
		fault    *sm.FaultPlan
	}{
		{"lavaMD", compiler.SwapECC, nil},
		{"hspot", compiler.SwapECC, nil},
		{"mm", compiler.SwapECC, nil},
		{"bprop", compiler.SwapECC, &sm.FaultPlan{TargetDynInstr: 49, Lane: 3, BitMask: 1 << 21}},
		{"mm", compiler.SWDup, &sm.FaultPlan{TargetDynInstr: 120, Lane: 3, BitMask: 1 << 9}},
	} {
		name := c.workload + "/" + c.scheme.String()
		w, err := workloads.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		k := compiler.MustApply(w.Kernel, c.scheme)
		launch := func(armed bool) (*sm.GPU, *sm.Stats) {
			cfg := sm.DefaultConfig()
			cfg.ECC = c.fault != nil
			g := w.NewGPU(cfg)
			if c.fault != nil {
				fp := *c.fault
				g.Fault = &fp
			}
			if armed {
				g.Flight = simprof.NewFlightRecorder(harness.LaunchRings)
			}
			st, err := g.Launch(k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if c.fault == nil {
				if err := w.Verify(g); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			return g, st
		}
		ref, refSt := launch(false)

		var refParts [][]simprof.Decision
		var refMerge []simprof.Decision
		for run := 0; run < 2; run++ {
			g, st := launch(true)
			if !reflect.DeepEqual(st, refSt) {
				t.Errorf("%s run %d: Stats diverge with telemetry armed", name, run)
			}
			if !reflect.DeepEqual(g.Mem, ref.Mem) {
				t.Errorf("%s run %d: memory diverges with telemetry armed", name, run)
			}
			if c.fault != nil && *g.Fault != *ref.Fault {
				t.Errorf("%s run %d: fault plan %+v, bare run %+v", name, run, *g.Fault, *ref.Fault)
			}
			if got := sm.DefaultConfig().Schedulers; len(st.PartitionInstrs) != got {
				t.Fatalf("%s run %d: stats have %d partitions, config has %d",
					name, run, len(st.PartitionInstrs), got)
			}
			// The rings are read directly: a whole launch is too many
			// decisions to round-trip through a JSON bundle ten times.
			parts := make([][]simprof.Decision, len(st.PartitionInstrs))
			for i := range parts {
				parts[i] = g.Flight.Partition(i).Snapshot()
			}
			merge := g.Flight.MergeRing().Snapshot()
			kinds := map[simprof.Kind]int64{}
			var retiring int64
			for i, ds := range parts {
				var issued int64
				for _, d := range ds {
					kinds[d.Kind]++
					if d.Kind == simprof.KindIssue {
						issued++
						if d.Aux == 1 {
							retiring++
						}
					}
				}
				if issued != st.PartitionInstrs[i] {
					t.Errorf("%s run %d: partition %d has %d issue decisions, stats say it issued %d",
						name, run, i, issued, st.PartitionInstrs[i])
				}
			}
			var merges, skips int64
			for _, d := range merge {
				switch d.Kind {
				case simprof.KindMerge:
					merges++
				case simprof.KindSkip:
					skips++
				}
			}
			if merges != st.IssueCycles || skips != st.IdleRounds || st.IdleRounds == 0 {
				t.Errorf("%s run %d: %d merge and %d skip decisions; stats %d issue cycles, %d idle rounds",
					name, run, merges, skips, st.IssueCycles, st.IdleRounds)
			}
			warps := int64(k.GridCTAs * ((k.CTAThreads + 31) / 32))
			if kinds[simprof.KindResident] != warps || retiring != warps {
				t.Errorf("%s run %d: %d resident and %d retiring decisions, want one per warp (%d)",
					name, run, kinds[simprof.KindResident], retiring, warps)
			}
			if kinds[simprof.KindIssue] != st.DynWarpInstrs || kinds[simprof.KindDue] != st.PipelineDUEs ||
				(kinds[simprof.KindTrap] > 0) != st.Trapped {
				t.Errorf("%s run %d: %d issue, %d due, %d trap decisions; stats %d instrs, %d DUEs, trapped=%v",
					name, run, kinds[simprof.KindIssue], kinds[simprof.KindDue], kinds[simprof.KindTrap],
					st.DynWarpInstrs, st.PipelineDUEs, st.Trapped)
			}
			if run == 0 {
				refParts, refMerge = parts, merge
				continue
			}
			if !reflect.DeepEqual(parts, refParts) || !reflect.DeepEqual(merge, refMerge) {
				t.Errorf("%s: decision streams differ between identical launches", name)
			}
		}
		if c.fault != nil && refSt.PipelineDUEs == 0 && !refSt.Trapped {
			t.Errorf("%s: the fault was neither detected nor trapped", name)
		}
	}
}
