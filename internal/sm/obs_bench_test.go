package sm

import (
	"testing"

	"swapcodes/internal/obs"
	"swapcodes/internal/obs/simprof"
)

// benchLaunch runs one vecadd launch; rec == nil measures the disabled
// observability path.
func benchLaunch(b *testing.B, rec *obs.Recorder) {
	const n = 2048
	k := vecAddKernel(n, 16, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGPU(DefaultConfig(), 3*n+64)
		g.Obs = rec
		st, err := g.Launch(k)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Cycles), "cycles")
	}
}

// BenchmarkSMObsDisabled is the overhead guard of the observability layer:
// with a nil recorder the cycle loop must run within noise (<=2%) of the
// pre-instrumentation simulator, because the only added work is one
// predictable nil-check branch per scheduler round. Compare against
// BenchmarkSMObsEnabled to see the enabled-path cost.
func BenchmarkSMObsDisabled(b *testing.B) { benchLaunch(b, nil) }

// BenchmarkSMObsEnabled measures a fully traced launch (warp spans, window
// samples, histograms) for the DESIGN.md overhead model.
func BenchmarkSMObsEnabled(b *testing.B) { benchLaunch(b, obs.NewRecorder()) }

// BenchmarkSMCPIStack measures the always-on CPI-stack accounting: a launch
// plus building the attribution stack from its Stats. The per-round cost
// (per-class idle charges, issue-cycle partition) is included in every
// launch benchmark already; this pins the end-to-end number the benchdiff
// trajectory tracks so a future accounting change that bloats the cycle
// loop shows up as a regression here.
func BenchmarkSMCPIStack(b *testing.B) {
	const n = 2048
	k := vecAddKernel(n, 16, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGPU(DefaultConfig(), 3*n+64)
		st, err := g.Launch(k)
		if err != nil {
			b.Fatal(err)
		}
		stack := st.CPIStack(k.Name, k.Scheme)
		if stack.Sum() != st.Cycles {
			b.Fatalf("stack sums to %d, want %d", stack.Sum(), st.Cycles)
		}
	}
}

// BenchmarkSMProfArmed measures a launch with the partition profiler
// (simprof.LaunchProf) armed: per-round counter folds and deferred-log
// peeks at the merge barrier. Compare against
// BenchmarkSMObsDisabled for the armed-profiler premium; the disabled cost
// is the same nil check that guards the recorder.
func BenchmarkSMProfArmed(b *testing.B) {
	const n = 2048
	k := vecAddKernel(n, 16, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGPU(DefaultConfig(), 3*n+64)
		g.Prof = &simprof.LaunchProf{}
		st, err := g.Launch(k)
		if err != nil {
			b.Fatal(err)
		}
		if g.Prof.Cycles != st.Cycles {
			b.Fatalf("prof cycles %d, stats %d", g.Prof.Cycles, st.Cycles)
		}
	}
}

// BenchmarkSMFlightArmed measures a launch with the flight recorder armed:
// one fixed-ring store per scheduler decision, no allocation, no I/O. This
// is the number that justifies leaving the black box on in servers.
func BenchmarkSMFlightArmed(b *testing.B) {
	const n = 2048
	k := vecAddKernel(n, 16, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGPU(DefaultConfig(), 3*n+64)
		g.Flight = simprof.NewFlightRecorder(0)
		if _, err := g.Launch(k); err != nil {
			b.Fatal(err)
		}
		if g.Flight.Failed() {
			b.Fatal("clean launch stamped failed")
		}
	}
}

// benchLaunchMem runs one vecadd launch under the given memory model; "off"
// measures the flat-latency path's nil-check overhead, "sectored" the armed
// hierarchy premium (coalescing, cache/MSHR/DRAM advance at the barrier).
func benchLaunchMem(b *testing.B, model string) {
	const n = 2048
	k := vecAddKernel(n, 16, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.MemModel = model
		g := NewGPU(cfg, 3*n+64)
		st, err := g.Launch(k)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Cycles), "cycles")
	}
}

// BenchmarkSMMemModelOff guards the flat path: with MemModel off the cycle
// loop's only added work is one nil check in exec and one at the merge
// barrier, so this must track BenchmarkSMObsDisabled within noise.
func BenchmarkSMMemModelOff(b *testing.B) { benchLaunchMem(b, "off") }

// BenchmarkSMMemModelArmed measures the armed hierarchy end to end —
// per-warp sector coalescing in exec, deferred request logs, and the
// deterministic cache/MSHR/DRAM advance in mergeRound.
func BenchmarkSMMemModelArmed(b *testing.B) { benchLaunchMem(b, "sectored") }
