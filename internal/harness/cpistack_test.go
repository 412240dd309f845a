package harness

import (
	"context"
	"math"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs/cpistack"
	"swapcodes/internal/sm"
)

// TestCPIStackPartitionHeadlineSweep is the acceptance gate of the
// attribution layer: for every workload and every scheme of the headline
// (Figure 12) sweep, the six CPI-stack components must sum exactly to the
// launch's cycle count, and each scheme's attribution contributions must
// sum exactly to its slowdown.
func TestCPIStackPartitionHeadlineSweep(t *testing.T) {
	perf, err := RunPerfCtxOpts(context.Background(), engine.New(0), Fig12Schemes(), false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := CPIStacks(perf)
	if len(res.Rows) != len(perf.Rows) {
		t.Fatalf("stack rows = %d, want %d", len(res.Rows), len(perf.Rows))
	}
	for _, row := range res.Rows {
		if got, want := row.Baseline.Sum(), row.Baseline.Cycles; got != want {
			t.Errorf("%s/baseline: components sum to %d, want %d", row.Workload, got, want)
		}
		for _, s := range res.Schemes {
			stack, ok := row.Stacks[s]
			if !ok {
				continue
			}
			if got := stack.Sum(); got != stack.Cycles {
				t.Errorf("%s/%v: components sum to %d, want %d cycles (%+v)",
					row.Workload, s, got, stack.Cycles, stack.Comp)
			}
			a := row.Attrs[s]
			var fsum float64
			var dsum int64
			for _, c := range a.Contribs {
				fsum += c.Frac
				dsum += c.DeltaCycles
			}
			if dsum != stack.Cycles-row.Baseline.Cycles {
				t.Errorf("%s/%v: contribution deltas sum to %d, want %d",
					row.Workload, s, dsum, stack.Cycles-row.Baseline.Cycles)
			}
			if math.Abs(fsum-a.Slowdown) > 1e-9 {
				t.Errorf("%s/%v: contribution fracs sum to %g, want slowdown %g",
					row.Workload, s, fsum, a.Slowdown)
			}
		}
	}
	// The paper's qualitative attribution claim at sweep level: SW-Dup's
	// slowdown is instruction-growth-dominated — it issues roughly twice the
	// instructions and pays for them in issue cycles — while Swap-ECC's
	// checking rides the swap network and grows both axes far less.
	// (Per-workload the ordering can invert — lavaMD's unrolled body gives
	// Swap-ECC unusually many checker ops — so assert on means.)
	dupI, eccI := res.MeanInstrFrac(compiler.SWDup), res.MeanInstrFrac(compiler.SwapECC)
	if dupI <= eccI {
		t.Errorf("mean instr growth: SW-Dup %.3f must exceed Swap-ECC %.3f", dupI, eccI)
	}
	dupC := res.MeanContrib(compiler.SWDup, cpistack.Issue)
	eccC := res.MeanContrib(compiler.SwapECC, cpistack.Issue)
	if dupC <= eccC {
		t.Errorf("mean issue contribution: SW-Dup %+.3f must exceed Swap-ECC %+.3f", dupC, eccC)
	}
}

// synthStats builds a deterministic Stats whose components partition cycles
// by construction — input for the renderer golden tests.
func synthStats(cycles, issue, deps, throttle, barrier, nowarp, occ, instrs int64, warps, limit int) *sm.Stats {
	if issue+deps+throttle+barrier+nowarp+occ != cycles {
		panic("synthStats: components do not partition cycles")
	}
	return &sm.Stats{
		Cycles: cycles, DynWarpInstrs: instrs,
		MaxResidentWarps: warps, ResidentWarpLimit: limit,
		IssueCycles: issue, StallCyclesDeps: deps, StallCyclesThrottle: throttle,
		StallCyclesBarrier: barrier, StallCyclesNoWarp: nowarp, StallCyclesOccupancy: occ,
		PerClass: map[isa.Class]int64{}, PerCat: map[isa.Category]int64{},
		DepCyclesPerClass:      map[isa.Class]int64{isa.ClassMemGlobal: deps},
		ThrottleCyclesPerClass: map[isa.Class]int64{isa.ClassFP32: throttle},
	}
}

// synthCPIResult is a small fixed sweep: two workloads, two schemes, with
// SW-Dup instruction-dominated and Swap-ECC dependence-dominated, mirroring
// the paper's attribution story.
func synthCPIResult() *CPIStackResult {
	perf := &PerfResult{
		Schemes: []compiler.Scheme{compiler.SWDup, compiler.SwapECC},
		Rows: []*PerfRow{
			{
				Workload: "mm",
				Baseline: synthStats(1000, 700, 200, 50, 30, 20, 0, 2800, 64, 64),
				Stats: map[compiler.Scheme]*sm.Stats{
					compiler.SWDup:   synthStats(1900, 1400, 300, 120, 40, 40, 0, 5400, 64, 64),
					compiler.SwapECC: synthStats(1400, 800, 460, 80, 30, 30, 0, 3600, 64, 64),
				},
				Errs: map[compiler.Scheme]string{},
			},
			{
				Workload: "lavaMD",
				Baseline: synthStats(2000, 1500, 300, 100, 60, 40, 0, 6000, 48, 48),
				Stats: map[compiler.Scheme]*sm.Stats{
					compiler.SWDup:   synthStats(3600, 2700, 400, 200, 80, 70, 150, 11500, 32, 32),
					compiler.SwapECC: synthStats(3100, 1700, 900, 180, 80, 60, 180, 7600, 32, 32),
				},
				Errs: map[compiler.Scheme]string{},
			},
		},
	}
	return CPIStacks(perf)
}

func TestCPIStackRenderGolden(t *testing.T) {
	golden(t, "cpistack", synthCPIResult().Render("CPI stacks (synthetic)"))
}

func TestCPIStackAttributionGolden(t *testing.T) {
	golden(t, "cpistack_attr", synthCPIResult().RenderAttribution("Slowdown attribution (synthetic)"))
}

func TestCPIStackCSVGolden(t *testing.T) {
	golden(t, "cpistack_csv", synthCPIResult().CSV())
}

func TestCPIStackChartGolden(t *testing.T) {
	golden(t, "cpistack_chart", synthCPIResult().Chart("CPI stack chart (synthetic)"))
}

// TestCPIStackSynthProperties pins the semantic claims the goldens render:
// contribution sums, dominant components, and the mean helpers.
func TestCPIStackSynthProperties(t *testing.T) {
	res := synthCPIResult()
	mm := res.Rows[0]
	dup := mm.Attrs[compiler.SWDup]
	if got := dup.Dominant(); got != cpistack.Issue {
		t.Errorf("synthetic SW-Dup dominant = %q, want issue", got)
	}
	ecc := mm.Attrs[compiler.SwapECC]
	if got := ecc.Dominant(); got != cpistack.Deps {
		t.Errorf("synthetic Swap-ECC dominant = %q, want deps", got)
	}
	if dup.InstrFrac <= ecc.InstrFrac {
		t.Error("synthetic SW-Dup must be instruction-dominated vs Swap-ECC")
	}
	if m := res.MeanContrib(compiler.SwapECC, cpistack.Deps); m <= 0 {
		t.Errorf("MeanContrib(deps) = %g, want > 0", m)
	}
	if m := res.MeanInstrFrac(compiler.SWDup); m <= res.MeanInstrFrac(compiler.SwapECC) {
		t.Errorf("mean instr growth: SW-Dup %g must exceed Swap-ECC %g",
			m, res.MeanInstrFrac(compiler.SwapECC))
	}
	if !strings.Contains(dup.Summary(), "slowdown") {
		t.Errorf("summary missing slowdown: %q", dup.Summary())
	}
}
