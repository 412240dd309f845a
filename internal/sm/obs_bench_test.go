package sm

import (
	"testing"

	"swapcodes/internal/obs/simprof"
)

// BenchmarkSMObsDisabled measures the plain launch: no flight recorder, no
// tracer. It is the baseline the armed benchmarks here and
// BenchmarkSMObserved are read against, alternated with them in one binary.
// CI runs these benchmarks at -benchtime 1x so that they keep running.
func BenchmarkSMObsDisabled(b *testing.B) {
	const n = 2048
	k := vecAddKernel(n, 16, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGPU(DefaultConfig(), 3*n+64)
		st, err := g.Launch(k)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Cycles), "cycles")
	}
}

// BenchmarkSMCPIStack measures the always-on CPI-stack accounting: a launch
// plus building the attribution stack from its Stats. The per-round cost
// (per-class idle charges, issue-cycle partition) is included in every
// launch benchmark already; this one adds building the stack and checks
// that it sums to the launch's cycles, so an accounting change can be
// timed against BenchmarkSMObsDisabled in one binary.
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

// BenchmarkSMFlightArmed measures a launch with the flight recorder armed:
// one ring store per scheduler decision, no I/O. On this 511-cycle vecadd
// the recorder's fixed per-launch cost (allocating and filling its rings)
// dominates, so the ratio to BenchmarkSMObsDisabled is what arming costs a
// tiny kernel; swapbench's simprof.flight_overhead_frac is what it costs a
// real launch (harness.Options.FlightRecord quotes both).
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
