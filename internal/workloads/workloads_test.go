package workloads

import (
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
)

// TestAllWorkloadsVerifyUnderAllSchemes is the repository's central
// integration property: every workload computes the same (host-verified)
// result under every protection transformation that applies to it.
func TestAllWorkloadsVerifyUnderAllSchemes(t *testing.T) {
	schemes := []compiler.Scheme{compiler.Baseline, compiler.SWDup, compiler.SwapECC,
		compiler.SwapPredictMAD, compiler.SwapPredictFpMAD, compiler.InterThread}
	if !testing.Short() {
		schemes = append(schemes, compiler.SwapPredictAddSub, compiler.SwapPredictOtherFxP,
			compiler.SwapPredictFpAddSub, compiler.InterThreadNoCheck)
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, s := range schemes {
				k, err := compiler.Apply(w.Kernel, s)
				if err != nil {
					// Expected only for inter-thread on mm (CTA size) and
					// snap (shuffles).
					if s == compiler.InterThread || s == compiler.InterThreadNoCheck {
						continue
					}
					t.Fatalf("%v: %v", s, err)
				}
				g := w.NewGPU(sm.DefaultConfig())
				st, err := g.Launch(k)
				if err != nil {
					t.Fatalf("%v: launch: %v", s, err)
				}
				if st.Trapped {
					t.Fatalf("%v: spurious checking trap on error-free run", s)
				}
				if err := w.Verify(g); err != nil {
					t.Fatalf("%v: %v", s, err)
				}
			}
		})
	}
}

// TestVerifyReadsOnlyTheGPU: a workload's Verify must depend on nothing
// but the GPU it is handed, never on state its own Setup left behind. A
// sweep that shares cells may verify a GPU another instance of the
// workload set up, and two launches of one instance may overlap.
func TestVerifyReadsOnlyTheGPU(t *testing.T) {
	launchers, verifiers := All(), All()
	for i, w := range launchers {
		t.Run(w.Name, func(t *testing.T) {
			g := w.NewGPU(sm.DefaultConfig())
			if _, err := g.Launch(w.Kernel); err != nil {
				t.Fatalf("launch: %v", err)
			}
			if err := verifiers[i].Verify(g); err != nil {
				t.Fatalf("verified by an instance whose Setup never ran: %v", err)
			}
		})
	}
}

func TestInterThreadFailureModesMatchPaper(t *testing.T) {
	// Section V: inter-thread duplication works for all Rodinia programs,
	// fails on matrix multiply (threads per CTA) and on SNAP (shuffles).
	for _, w := range Rodinia() {
		if _, err := compiler.Apply(w.Kernel, compiler.InterThread); err != nil {
			t.Errorf("%s: inter-thread should work on Rodinia programs: %v", w.Name, err)
		}
	}
	mmW, _ := ByName("mm")
	if _, err := compiler.Apply(mmW.Kernel, compiler.InterThread); err == nil {
		t.Error("mm: inter-thread should fail (doubled CTA exceeds the limit)")
	}
	snapW, _ := ByName("snap")
	if _, err := compiler.Apply(snapW.Kernel, compiler.InterThread); err == nil {
		t.Error("snap: inter-thread should fail (kernel uses shuffles)")
	}
}

func TestWorkloadInventory(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("%d workloads, want 15 (13 Rodinia + mm + snap)", len(all))
	}
	wantOrder := []string{"lavaMD", "bprop", "kmeans", "lud", "gauss", "b+tree",
		"mumm", "hspot", "heart", "needle", "bfs", "pathf", "srad_v2", "mm", "snap"}
	seen := map[string]bool{}
	highUtil := 0
	for i, w := range all {
		if w.Name != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, w.Name, wantOrder[i])
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.HighUtil {
			highUtil++
		}
		if err := w.Kernel.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.MemWords <= 0 || w.Setup == nil || w.Verify == nil {
			t.Errorf("%s: incomplete definition", w.Name)
		}
	}
	if highUtil != 2 {
		t.Errorf("%d high-utilization workloads, want 2 (mm, snap) for Figure 14", highUtil)
	}
	if len(Rodinia()) != 13 {
		t.Errorf("Rodinia subset has %d programs, want 13", len(Rodinia()))
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("lavaMD"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSlowdownOrderingShape checks the coarse Figure 12 shape on a
// representative subset: Swap-ECC beats SW-Dup, and prediction beats
// Swap-ECC, for checking-heavy programs.
func TestSlowdownOrderingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep")
	}
	for _, name := range []string{"srad_v2", "pathf", "needle", "gauss"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cycles := map[compiler.Scheme]int64{}
		for _, s := range []compiler.Scheme{compiler.Baseline, compiler.SWDup, compiler.SwapECC, compiler.SwapPredictMAD} {
			k := compiler.MustApply(w.Kernel, s)
			g := w.NewGPU(sm.DefaultConfig())
			st, err := g.Launch(k)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, s, err)
			}
			cycles[s] = st.Cycles
		}
		if !(cycles[compiler.SwapECC] < cycles[compiler.SWDup]) {
			t.Errorf("%s: Swap-ECC (%d) !< SW-Dup (%d)", name, cycles[compiler.SwapECC], cycles[compiler.SWDup])
		}
		if !(cycles[compiler.SwapPredictMAD] <= cycles[compiler.SwapECC]) {
			t.Errorf("%s: Pre MAD (%d) !<= Swap-ECC (%d)", name, cycles[compiler.SwapPredictMAD], cycles[compiler.SwapECC])
		}
		if !(cycles[compiler.Baseline] < cycles[compiler.SWDup]) {
			t.Errorf("%s: baseline not fastest", name)
		}
	}
}

// TestSNAPOccupancyCliff checks the paper's SNAP story: SW-Dup's register
// pressure halves residency while Swap-ECC preserves it.
func TestSNAPOccupancyCliff(t *testing.T) {
	w, _ := ByName("snap")
	run := func(s compiler.Scheme) *sm.Stats {
		k := compiler.MustApply(w.Kernel, s)
		g := w.NewGPU(sm.DefaultConfig())
		st, err := g.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(compiler.Baseline)
	dup := run(compiler.SWDup)
	swap := run(compiler.SwapECC)
	if dup.MaxResidentWarps*2 > base.MaxResidentWarps+8 {
		t.Errorf("SW-Dup occupancy %d vs baseline %d: shadow space should halve it",
			dup.MaxResidentWarps, base.MaxResidentWarps)
	}
	if swap.MaxResidentWarps != base.MaxResidentWarps {
		t.Errorf("Swap-ECC occupancy %d vs baseline %d: no shadow space, should match",
			swap.MaxResidentWarps, base.MaxResidentWarps)
	}
}

// TestCheckingBloatDistribution verifies the Figure 13 checking range and
// that srad_v2 sits at the top (the paper's sort order).
func TestCheckingBloatDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep")
	}
	frac := map[string]float64{}
	for _, w := range Rodinia() {
		base := compiler.MustApply(w.Kernel, compiler.Baseline)
		dup := compiler.MustApply(w.Kernel, compiler.SWDup)
		g := w.NewGPU(sm.DefaultConfig())
		stBase, err := g.Launch(base)
		if err != nil {
			t.Fatal(err)
		}
		g2 := w.NewGPU(sm.DefaultConfig())
		stDup, err := g2.Launch(dup)
		if err != nil {
			t.Fatal(err)
		}
		frac[w.Name] = float64(stDup.PerCat[isa.CatChecking]) / float64(stBase.DynWarpInstrs)
	}
	// The paper reports an 11-35% checking range; ours should span a
	// comparable spread with lavaMD near the bottom and the DP/stencil
	// store-heavy programs near the top.
	if !(frac["lavaMD"] < frac["srad_v2"]) {
		t.Errorf("checking: lavaMD %.2f should be below srad_v2 %.2f", frac["lavaMD"], frac["srad_v2"])
	}
	if !(frac["lavaMD"] < frac["pathf"]) {
		t.Errorf("checking: lavaMD %.2f should be below pathf %.2f", frac["lavaMD"], frac["pathf"])
	}
	for name, f := range frac {
		if f < 0.005 || f > 0.8 {
			t.Errorf("%s: checking fraction %.2f outside plausible band", name, f)
		}
	}
}

// TestSInRGComparison reproduces the Section VI expectation: Swap-ECC
// performs "roughly as well as HW-Sig-SRIV" (SInRG's most aggressive
// organization) while — unlike it — keeping error containment. We require
// the two means within a few points of each other and both well under
// SW-Dup.
func TestSInRGComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep")
	}
	var sumSig, sumSwap, sumDup float64
	n := 0
	for _, w := range All() {
		var base int64
		cyc := map[compiler.Scheme]int64{}
		for _, s := range []compiler.Scheme{compiler.Baseline, compiler.SWDup, compiler.SwapECC, compiler.SInRGSig} {
			k := compiler.MustApply(w.Kernel, s)
			g := w.NewGPU(sm.DefaultConfig())
			st, err := g.Launch(k)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			if err := w.Verify(g); err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			if s == compiler.Baseline {
				base = st.Cycles
			} else {
				cyc[s] = st.Cycles
			}
		}
		sd := func(s compiler.Scheme) float64 { return float64(cyc[s]-base) / float64(base) }
		sumSig += sd(compiler.SInRGSig)
		sumSwap += sd(compiler.SwapECC)
		sumDup += sd(compiler.SWDup)
		n++
	}
	sig, swap, dup := sumSig/float64(n), sumSwap/float64(n), sumDup/float64(n)
	t.Logf("means: SW-Dup %.1f%%, HW-Sig-SRIV %.1f%%, Swap-ECC %.1f%%", 100*dup, 100*sig, 100*swap)
	if !(sig < dup && swap < dup) {
		t.Errorf("both optimized schemes must beat SW-Dup: %v %v %v", dup, sig, swap)
	}
	if diff := swap - sig; diff > 0.15 || diff < -0.15 {
		t.Errorf("Swap-ECC (%.2f) and HW-Sig-SRIV (%.2f) should be roughly comparable", swap, sig)
	}
}

// TestWorkloadCharacters pins each program's published character: the
// instruction-class mix that drives its Figure 12/13 behaviour.
func TestWorkloadCharacters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	mix := func(name string) (map[isa.Class]float64, *sm.Stats) {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := w.NewGPU(sm.DefaultConfig())
		st, err := g.Launch(compiler.MustApply(w.Kernel, compiler.Baseline))
		if err != nil {
			t.Fatal(err)
		}
		m := map[isa.Class]float64{}
		for cl, n := range st.PerClass {
			m[cl] = float64(n) / float64(st.DynWarpInstrs)
		}
		return m, st
	}

	// lavaMD: floating-point MAD limited (Section VI).
	if m, _ := mix("lavaMD"); m[isa.ClassFP32] < 0.40 {
		t.Errorf("lavaMD FP32 fraction %.2f, want dominant", m[isa.ClassFP32])
	}
	// snap: double precision present, memory-heavy, shuffle user.
	if m, _ := mix("snap"); m[isa.ClassFP64] < 0.10 || m[isa.ClassMemGlobal] < 0.10 {
		t.Errorf("snap mix %.2f FP64 / %.2f gmem", m[isa.ClassFP64], m[isa.ClassMemGlobal])
	}
	// b+tree: integer-compare heavy.
	if m, _ := mix("b+tree"); m[isa.ClassFxP] < 0.40 {
		t.Errorf("b+tree FxP fraction %.2f", m[isa.ClassFxP])
	}
	// bfs: memory/control dominated, arithmetic light.
	if m, _ := mix("bfs"); m[isa.ClassFP32] > 0.05 {
		t.Errorf("bfs has FP32 work (%.2f)?", m[isa.ClassFP32])
	}
	// mm: FMA inner loop.
	if m, _ := mix("mm"); m[isa.ClassFP32] < 0.10 || m[isa.ClassMemShared] < 0.15 {
		t.Errorf("mm mix %.2f fp32 / %.2f smem", m[isa.ClassFP32], m[isa.ClassMemShared])
	}
	// hspot: shared-memory stencil with barriers.
	if _, st := mix("hspot"); st.PerClass[isa.ClassControl] == 0 {
		t.Error("hspot should hit barriers")
	}
}
