package sm_test

import (
	"bytes"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/harness"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
)

// The SM's metrics and timeline are derived after each launch from its
// whole-launch flight recorder (harness.ObserveLaunch); these tests hold
// that path to what the trace viewer, the registry and the containment
// study need.

// observedLaunch arms a whole-launch flight recorder on g, runs k and
// writes the launch's observation into rec.
func observedLaunch(t testing.TB, rec *obs.Recorder, g *sm.GPU, k *isa.Kernel) (*sm.Stats, error) {
	t.Helper()
	g.Flight = simprof.NewFlightRecorder(harness.LaunchRings)
	st, err := g.Launch(k)
	if st != nil {
		if oerr := harness.ObserveLaunch(rec, g, k, st); oerr != nil {
			t.Fatal(oerr)
		}
	}
	return st, err
}

// TestObsTraceSchema is the acceptance gate for -trace: an observed launch
// must produce a Chrome trace-event JSON document that validates (and so
// loads in Perfetto / chrome://tracing).
func TestObsTraceSchema(t *testing.T) {
	const n = 200
	k := sm.VecAddKernel(n, 4, 64)
	rec := obs.NewRecorder()
	st, err := observedLaunch(t, rec, sm.NewGPU(sm.DefaultConfig(), 3*n+64), k)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("sm trace does not validate: %v", err)
	}

	// The trace must contain: one lifetime span per executed warp, at least
	// one sample of each counter series, and the process metadata.
	spans, byName := 0, map[string]int{}
	for _, e := range events {
		if e.Ph == "X" && e.Cat == "warp" {
			spans++
			if e.TS+e.Dur > st.Cycles+1 {
				t.Errorf("warp span %s ends at %d, past the %d-cycle launch", e.Name, e.TS+e.Dur, st.Cycles)
			}
		}
		byName[e.Name+"/"+e.Ph]++
	}
	wantWarps := 4 * 2 // grid=4 CTAs x (64 threads / 32 per warp)
	if spans != wantWarps {
		t.Errorf("warp spans = %d, want %d", spans, wantWarps)
	}
	for _, series := range []string{"sm.occupancy/C", "sm.issue_slots/C", "sm.stall_cycles/C"} {
		if byName[series] == 0 {
			t.Errorf("trace has no %s samples", series)
		}
	}
	if byName["process_name/M"] == 0 {
		t.Error("trace has no process metadata")
	}
}

// TestObsRegistryCounters checks the registry side: cycle and instruction
// counters must reconcile exactly with the launch Stats (the trailing
// partial window must not be lost).
func TestObsRegistryCounters(t *testing.T) {
	const n = 200
	k := sm.VecAddKernel(n, 4, 64)
	rec := obs.NewRecorder()
	st, err := observedLaunch(t, rec, sm.NewGPU(sm.DefaultConfig(), 3*n+64), k)
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	// Instruments are labeled per kernel x scheme (DESIGN.md section 8); a
	// hand-built kernel launched without a compiler pass gets scheme "none".
	kv := []string{"kernel", k.Name, "scheme", "none"}
	if got := reg.Counter(obs.Name("sm.cycles", kv...)).Value(); got != st.Cycles {
		t.Errorf("sm.cycles = %d, want Stats.Cycles = %d", got, st.Cycles)
	}
	if got := reg.SumCounters("sm.cycles"); got != st.Cycles {
		t.Errorf("SumCounters(sm.cycles) = %d, want %d", got, st.Cycles)
	}
	if got := reg.Counter(obs.Name("sm.warp_instrs", kv...)).Value(); got != st.DynWarpInstrs {
		t.Errorf("sm.warp_instrs = %d, want Stats.DynWarpInstrs = %d", got, st.DynWarpInstrs)
	}
	if got := reg.Counter(obs.Name("sm.warps_retired", kv...)).Value(); got != 8 {
		t.Errorf("sm.warps_retired = %d, want 8", got)
	}
	if reg.Histogram(obs.Name("sm.scoreboard_wait_cycles", kv...)).Count() == 0 {
		t.Error("no scoreboard waits observed on a latency-bound kernel")
	}
	// The per-launch CPI-stack counters must reconcile with Stats too.
	var stallSum int64
	for _, m := range reg.Snapshot() {
		if base, _ := obs.ParseName(m.Name); base == "sm.stall_cycles" {
			stallSum += m.Value
		}
	}
	if stallSum != st.StallCycles() {
		t.Errorf("sm.stall_cycles family sums to %d, want Stats.StallCycles() = %d", stallSum, st.StallCycles())
	}
	if got := reg.SumCounters("sm.issue_cycles"); got != st.IssueCycles {
		t.Errorf("sm.issue_cycles = %d, want %d", got, st.IssueCycles)
	}
}

// TestObsStallCycleAccounting: fully-idle cycles plus rounds with issue
// must not exceed total cycles, and a dependence-chained kernel must charge
// most of its idle time to the scoreboard.
func TestObsStallCycleAccounting(t *testing.T) {
	const n = 64
	k := sm.VecAddKernel(n, 1, 64)
	g := sm.NewGPU(sm.DefaultConfig(), 3*n+64)
	st, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if st.StallCycles() >= st.Cycles {
		t.Errorf("stall cycles %d >= total cycles %d", st.StallCycles(), st.Cycles)
	}
	if st.StallCyclesDeps == 0 {
		t.Error("single-warp latency-bound kernel charged no scoreboard stall cycles")
	}
}

// TestObsDetectionLatency: an injected pipeline error detected by the
// Swap-ECC decoder must land one observation in the detection-latency
// histogram and one DUE instant in the trace.
func TestObsDetectionLatency(t *testing.T) {
	base := sm.ContainmentKernel()
	k := compiler.MustApply(base, compiler.SwapECC)
	cfg := sm.DefaultConfig()
	cfg.ECC = true
	rec := obs.NewRecorder()
	g := sm.NewGPU(cfg, 64)
	g.Fault = &sm.FaultPlan{TargetDynInstr: 1, Lane: 2, BitMask: 4}
	st, err := observedLaunch(t, rec, g, k)
	if err != nil {
		t.Fatal(err)
	}
	if st.PipelineDUEs == 0 {
		t.Fatal("fault was not detected; cannot measure latency")
	}
	h := rec.Registry().Histogram(obs.Name("sm.detect_latency_cycles",
		"kernel", k.Name, "scheme", "Swap-ECC"))
	if h.Count() != st.PipelineDUEs {
		t.Errorf("detection latency observations = %d, want %d (one per DUE)", h.Count(), st.PipelineDUEs)
	}
	if h.Quantile(1) < 1 {
		t.Error("detection latency must be at least the pipe latency")
	}
	dues := 0
	for _, e := range rec.Events() {
		if e.Name == "pipeline DUE" && e.Ph == "i" {
			dues++
		}
	}
	if int64(dues) != st.PipelineDUEs {
		t.Errorf("trace DUE instants = %d, want %d", dues, st.PipelineDUEs)
	}
}

// TestObsUniqueProcesses: two launches of the same kernel on one recorder
// must land on distinct trace processes so their timelines do not overlap.
func TestObsUniqueProcesses(t *testing.T) {
	const n = 64
	rec := obs.NewRecorder()
	for i := 0; i < 2; i++ {
		g := sm.NewGPU(sm.DefaultConfig(), 3*n+64)
		if _, err := observedLaunch(t, rec, g, sm.VecAddKernel(n, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	names := map[string]bool{}
	for _, e := range rec.Events() {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Args["name"].(string)] = true
		}
	}
	want := 0
	for name := range names {
		if strings.HasPrefix(name, "sm:vecadd") {
			want++
		}
	}
	if want != 2 {
		t.Errorf("launches share a trace process: %v", names)
	}
}

// BenchmarkSMObserved measures the observed launch: the plain launch of
// BenchmarkSMObsDisabled with whole-launch flight rings armed, plus
// harness.ObserveLaunch deriving the metrics and timeline afterwards.
func BenchmarkSMObserved(b *testing.B) {
	const n = 2048
	k := sm.VecAddKernel(n, 16, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := observedLaunch(b, obs.NewRecorder(), sm.NewGPU(sm.DefaultConfig(), 3*n+64), k)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Cycles), "cycles")
	}
}
