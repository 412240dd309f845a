package sm

import (
	"math"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
)

// vecAddKernel: c[i] = a[i] + b[i] (f32) for i < n, with a bounds guard.
// Memory layout: a at 0, b at n, c at 2n.
func vecAddKernel(n, grid, cta int) *isa.Kernel {
	a := compiler.NewAsm("vecadd")
	const (
		rTid, rCta, rNTid, rIdx, rA, rVa, rVb, rVc = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7)
	)
	a.S2R(rTid, isa.SRTid)
	a.S2R(rCta, isa.SRCtaid)
	a.S2R(rNTid, isa.SRNTid)
	a.IMad(rIdx, rCta, rNTid, rTid)
	a.ISetpI(isa.CmpGE, 0, rIdx, int32(n))
	a.BraP(0, false, "end", "end")
	a.Mov(rA, rIdx)
	a.Ldg(rVa, rA, 0)
	a.Ldg(rVb, rA, int32(n))
	a.FAdd(rVc, rVa, rVb)
	a.Stg(rA, int32(2*n), rVc)
	a.Label("end")
	a.Exit()
	return a.MustBuild(grid, cta, 0)
}

func runVecAdd(t *testing.T, k *isa.Kernel, n int) *GPU {
	t.Helper()
	g := NewGPU(DefaultConfig(), 3*n+64)
	for i := 0; i < n; i++ {
		g.SetFloat32(i, float32(i))
		g.SetFloat32(n+i, float32(2*i))
	}
	if _, err := g.Launch(k); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVecAddFunctional(t *testing.T) {
	const n = 200
	k := vecAddKernel(n, 4, 64) // 256 threads > n: exercises the guard
	g := runVecAdd(t, k, n)
	for i := 0; i < n; i++ {
		if got := g.Float32(2*n + i); got != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, float32(3*i))
		}
	}
}

// TestAllSchemesComputeSameResult is the master functional-equivalence
// property: every protection transformation must be semantics-preserving.
func TestAllSchemesComputeSameResult(t *testing.T) {
	const n = 200
	base := vecAddKernel(n, 4, 64)
	for _, s := range []compiler.Scheme{compiler.Baseline, compiler.SWDup,
		compiler.SwapECC, compiler.SwapPredictAddSub, compiler.SwapPredictMAD,
		compiler.SwapPredictOtherFxP, compiler.SwapPredictFpAddSub,
		compiler.SwapPredictFpMAD, compiler.InterThread, compiler.InterThreadNoCheck} {
		k, err := compiler.Apply(base, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		g := runVecAdd(t, k, n)
		for i := 0; i < n; i++ {
			if got := g.Float32(2*n + i); got != float32(3*i) {
				t.Fatalf("%v: c[%d] = %v, want %v", s, i, got, float32(3*i))
			}
		}
	}
}

// divergenceKernel: out[i] = i odd ? i*3 : i+100, via a divergent if/else.
func divergenceKernel(n int) *isa.Kernel {
	a := compiler.NewAsm("diverge")
	const (
		rTid, rBit, rVal = isa.Reg(0), isa.Reg(1), isa.Reg(2)
	)
	a.S2R(rTid, isa.SRTid)
	a.AndI(rBit, rTid, 1)
	a.ISetpI(isa.CmpNE, 0, rBit, 0)
	a.BraP(0, true, "else", "endif") // !odd -> else
	a.IMulI(rVal, rTid, 3)
	a.Bra("endif")
	a.Label("else")
	a.IAddI(rVal, rTid, 100)
	a.Label("endif")
	a.Stg(rTid, 0, rVal)
	a.Exit()
	return a.MustBuild(1, n, 0)
}

func TestDivergentIfElse(t *testing.T) {
	const n = 64
	g := NewGPU(DefaultConfig(), n)
	if _, err := g.Launch(divergenceKernel(n)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int32(i + 100)
		if i%2 == 1 {
			want = int32(i * 3)
		}
		if got := g.Int32(i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// loopKernel: out[tid] = sum_{j=0}^{tid} j, a loop with a divergent trip
// count per lane.
func loopKernel(n int) *isa.Kernel {
	a := compiler.NewAsm("loop")
	const (
		rTid, rJ, rAcc = isa.Reg(0), isa.Reg(1), isa.Reg(2)
	)
	a.S2R(rTid, isa.SRTid)
	a.MovI(rJ, 0)
	a.MovI(rAcc, 0)
	a.Label("loop")
	a.IAdd(rAcc, rAcc, rJ)
	a.IAddI(rJ, rJ, 1)
	a.ISetp(isa.CmpLE, 0, rJ, rTid)
	a.BraP(0, false, "loop", "after")
	a.Label("after")
	a.Stg(rTid, 0, rAcc)
	a.Exit()
	return a.MustBuild(1, n, 0)
}

func TestDivergentLoopTripCounts(t *testing.T) {
	const n = 64
	g := NewGPU(DefaultConfig(), n)
	if _, err := g.Launch(loopKernel(n)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int32(i * (i + 1) / 2)
		if got := g.Int32(i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// reductionKernel: shared-memory tree reduction with barriers; out[cta] =
// sum of in[cta*threads .. ).
func reductionKernel(grid, cta int) *isa.Kernel {
	a := compiler.NewAsm("reduce")
	const (
		rTid, rCta, rNTid, rIdx, rV, rS, rOther, rAddr = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7)
	)
	a.S2R(rTid, isa.SRTid)
	a.S2R(rCta, isa.SRCtaid)
	a.S2R(rNTid, isa.SRNTid)
	a.IMad(rIdx, rCta, rNTid, rTid)
	a.Ldg(rV, rIdx, 0)
	a.Sts(rTid, 0, rV)
	a.Bar()
	for s := cta / 2; s > 0; s /= 2 {
		lbl := "skip" + string(rune('a'+s%26)) + string(rune('a'+(s/26)%26))
		a.ISetpI(isa.CmpGE, 0, rTid, int32(s))
		a.BraP(0, false, lbl, lbl)
		a.IAddI(rAddr, rTid, int32(s))
		a.Lds(rOther, rAddr, 0)
		a.Lds(rS, rTid, 0)
		a.IAdd(rS, rS, rOther)
		a.Sts(rTid, 0, rS)
		a.Label(lbl)
		a.Bar()
	}
	a.ISetpI(isa.CmpNE, 0, rTid, 0)
	a.BraP(0, false, "done", "done")
	a.Lds(rS, rTid, 0)
	a.Stg(rCta, 4096, rS)
	a.Label("done")
	a.Exit()
	return a.MustBuild(grid, cta, cta)
}

func TestBarrierReduction(t *testing.T) {
	const grid, cta = 4, 128
	g := NewGPU(DefaultConfig(), 8192)
	want := make([]int32, grid)
	for c := 0; c < grid; c++ {
		for i := 0; i < cta; i++ {
			v := int32(c*1000 + i)
			g.SetInt32(c*cta+i, v)
			want[c] += v
		}
	}
	if _, err := g.Launch(reductionKernel(grid, cta)); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < grid; c++ {
		if got := g.Int32(4096 + c); got != want[c] {
			t.Fatalf("cta %d sum = %d, want %d", c, got, want[c])
		}
	}
}

func TestAtomicsAndShuffle(t *testing.T) {
	a := compiler.NewAsm("atomics")
	const (
		rTid, rOne, rZero, rPartner = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3)
	)
	a.S2R(rTid, isa.SRTid)
	a.MovI(rOne, 1)
	a.MovI(rZero, 0)
	a.Atom(isa.OpAdd, isa.RZ, rZero, rOne, 0) // mem[0] += 1 per thread
	a.Atom(isa.OpMax, isa.RZ, rZero, rTid, 1) // mem[1] = max tid
	a.Shfl(rPartner, rTid, 1)                 // partner lane's tid
	a.IAddI(rOne, rTid, 2)                    // reuse rOne as addr = tid+2
	a.Stg(rOne, 0, rPartner)
	a.Exit()
	g := NewGPU(DefaultConfig(), 128)
	if _, err := g.Launch(a.MustBuild(1, 64, 0)); err != nil {
		t.Fatal(err)
	}
	if got := g.Int32(0); got != 64 {
		t.Errorf("atomic add total %d, want 64", got)
	}
	if got := g.Int32(1); got != 63 {
		t.Errorf("atomic max %d, want 63", got)
	}
	for i := 0; i < 64; i++ {
		if got := g.Int32(i + 2); got != int32(i^1) {
			t.Fatalf("shuffle[%d] = %d, want %d", i, got, i^1)
		}
	}
}

func TestFP64Pairs(t *testing.T) {
	a := compiler.NewAsm("fp64")
	const (
		rTid, rAddr = isa.Reg(0), isa.Reg(1)
		rX          = isa.Reg(2) // pair 2,3
		rY          = isa.Reg(4) // pair 4,5
		rZ          = isa.Reg(6) // pair 6,7
	)
	a.S2R(rTid, isa.SRTid)
	a.ShlI(rAddr, rTid, 1)
	a.Ldg(rX, rAddr, 0)
	a.Ldg(rX+1, rAddr, 1)
	a.Ldg(rY, rAddr, 64)
	a.Ldg(rY+1, rAddr, 65)
	a.DMul(rZ, rX, rY)
	a.DFma(rZ, rX, rY, rZ) // z = x*y + x*y = 2xy -- accumulation via DFMA
	a.DAdd(rZ, rZ, rX)
	a.Stg(rAddr, 128, rZ)
	a.Stg(rAddr, 129, rZ+1)
	a.Exit()
	k := a.MustBuild(1, 32, 0)
	g := NewGPU(DefaultConfig(), 256)
	for i := 0; i < 32; i++ {
		g.SetFloat64(2*i, float64(i)+0.5)
		g.SetFloat64(64+2*i, 3.0)
	}
	if _, err := g.Launch(k); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		x := float64(i) + 0.5
		want := 2*x*3 + x
		if got := g.Float64(128 + 2*i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("z[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestMufuAndConversions(t *testing.T) {
	a := compiler.NewAsm("mufu")
	const (
		rTid, rF, rR, rS, rI = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
	)
	a.S2R(rTid, isa.SRTid)
	a.IAddI(rTid, rTid, 1) // 1..32
	a.I2F(rF, rTid)
	a.Mufu(isa.FnRCP, rR, rF)  // 1/x
	a.Mufu(isa.FnSQRT, rS, rF) // sqrt(x)
	a.FMul(rR, rR, rF)         // x * 1/x = 1
	a.FAdd(rR, rR, rS)
	a.F2I(rI, rS)
	a.S2R(rF, isa.SRTid)
	a.Stg(rF, 0, rI)
	a.Exit()
	g := NewGPU(DefaultConfig(), 64)
	if _, err := g.Launch(a.MustBuild(1, 32, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := int32(math.Sqrt(float64(i + 1)))
		if got := g.Int32(i); got != want {
			t.Fatalf("isqrt[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestOccupancyRegisterPressure(t *testing.T) {
	// 64 regs/thread, 256-thread CTAs: 65536/(64*256) = 4 CTAs resident;
	// at 16 regs: 16 CTAs, capped by warp slots 64/8 = 8.
	mk := func(regs int) *isa.Kernel {
		a := compiler.NewAsm("occ")
		a.MovI(isa.Reg(regs-1), 1)
		a.Exit()
		return a.MustBuild(32, 256, 0)
	}
	g := NewGPU(DefaultConfig(), 64)
	sFat, err := g.Launch(mk(64))
	if err != nil {
		t.Fatal(err)
	}
	sThin, err := g.Launch(mk(16))
	if err != nil {
		t.Fatal(err)
	}
	if sFat.MaxResidentWarps != 32 { // 4 CTAs * 8 warps
		t.Errorf("fat kernel resident warps %d, want 32", sFat.MaxResidentWarps)
	}
	if sThin.MaxResidentWarps != 64 {
		t.Errorf("thin kernel resident warps %d, want 64", sThin.MaxResidentWarps)
	}
}

func TestTimingSchemesOrdering(t *testing.T) {
	// A throughput-bound kernel with per-iteration stores (checking
	// pressure for SW-Dup) and independent accumulators (latency hidden):
	// baseline <= Swap-Predict <= Swap-ECC < SW-Dup in cycles.
	a := compiler.NewAsm("compute")
	const (
		rTid, rAcc, rAcc2, rI, rT = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
	)
	a.S2R(rTid, isa.SRTid)
	a.MovI(rAcc, 1)
	a.MovI(rAcc2, 2)
	a.MovI(rI, 0)
	a.Label("loop")
	for j := 0; j < 4; j++ {
		a.IMad(rT, rAcc, rAcc2, rTid)
		a.IAdd(rAcc, rAcc2, rT)
		a.IMad(rAcc2, rT, rT, rI)
	}
	a.Stg(rTid, 0, rAcc)
	a.IAddI(rI, rI, 1)
	a.ISetpI(isa.CmpLT, 0, rI, 32)
	a.BraP(0, false, "loop", "after")
	a.Label("after")
	a.Exit()
	base := a.MustBuild(8, 128, 0)

	cycles := map[compiler.Scheme]int64{}
	g := NewGPU(DefaultConfig(), 2048)
	for _, s := range []compiler.Scheme{compiler.Baseline, compiler.SWDup, compiler.SwapECC, compiler.SwapPredictMAD} {
		st, err := g.Launch(compiler.MustApply(base, s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		cycles[s] = st.Cycles
	}
	if !(cycles[compiler.Baseline] <= cycles[compiler.SwapPredictMAD]) {
		t.Errorf("baseline %d !<= PreMAD %d", cycles[compiler.Baseline], cycles[compiler.SwapPredictMAD])
	}
	if !(cycles[compiler.SwapPredictMAD] <= cycles[compiler.SwapECC]) {
		t.Errorf("PreMAD %d !<= SwapECC %d", cycles[compiler.SwapPredictMAD], cycles[compiler.SwapECC])
	}
	if !(cycles[compiler.SwapECC] < cycles[compiler.SWDup]) {
		t.Errorf("SwapECC %d !< SWDup %d", cycles[compiler.SwapECC], cycles[compiler.SWDup])
	}
}

func TestStatsCategories(t *testing.T) {
	k := compiler.MustApply(vecAddKernel(100, 2, 64), compiler.SWDup)
	g := NewGPU(DefaultConfig(), 512)
	st, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerCat[isa.CatChecking] == 0 || st.PerCat[isa.CatDuplicated] == 0 {
		t.Errorf("categories: %v", st.PerCat)
	}
	if st.DynWarpInstrs == 0 || st.Cycles == 0 || st.IPC() <= 0 {
		t.Error("empty stats")
	}
}

// TestFaultDetectionSWDup: an injected pipeline error in a duplicated
// instruction fires the software checking trap.
func TestFaultDetectionSWDup(t *testing.T) {
	base := vecAddKernel(32, 1, 32) // single warp: dynamic index == static pc
	k := compiler.MustApply(base, compiler.SWDup)
	// Find the dynamic index of the first FADD (an original, checked op).
	idx := int64(-1)
	for pc, in := range k.Code {
		if in.Op == isa.FADD && in.Flags == 0 {
			// Dynamic index == static pc here: single warp, no loops before.
			idx = int64(pc)
			break
		}
	}
	if idx < 0 {
		t.Fatal("no FADD found")
	}
	g := NewGPU(DefaultConfig(), 512)
	for i := 0; i < 32; i++ {
		g.SetFloat32(i, float32(i))
		g.SetFloat32(32+i, float32(i))
	}
	g.Fault = &FaultPlan{TargetDynInstr: idx, Lane: 5, BitMask: 1 << 13}
	st, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Fault.Applied {
		t.Fatal("fault never fired")
	}
	if !st.Trapped {
		t.Error("SW-Dup failed to trap the injected error")
	}
}

// TestFaultDetectionSwapECC: the same error under Swap-ECC is caught by the
// register-file decoder as a pipeline DUE, with no checking instructions.
func TestFaultDetectionSwapECC(t *testing.T) {
	base := vecAddKernel(32, 1, 32) // single warp: dynamic index == static pc
	k := compiler.MustApply(base, compiler.SwapECC)
	idx := int64(-1)
	for pc, in := range k.Code {
		if in.Op == isa.FADD && in.Flags&isa.FlagShadow == 0 {
			idx = int64(pc)
			break
		}
	}
	if idx < 0 {
		t.Fatal("no FADD found")
	}
	cfg := DefaultConfig()
	cfg.ECC = true
	g := NewGPU(cfg, 512)
	for i := 0; i < 32; i++ {
		g.SetFloat32(i, float32(i))
		g.SetFloat32(32+i, float32(i))
	}
	g.Fault = &FaultPlan{TargetDynInstr: idx, Lane: 9, BitMask: 1 << 21}
	st, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Fault.Applied {
		t.Fatal("fault never fired")
	}
	if st.PipelineDUEs == 0 {
		t.Error("Swap-ECC register file missed the pipeline error")
	}
	if st.Trapped {
		t.Error("Swap-ECC should not use software traps")
	}
}

// TestFaultUndetectedOnBaseline: without protection the same fault corrupts
// the output silently (SDC).
func TestFaultUndetectedOnBaseline(t *testing.T) {
	k := vecAddKernel(32, 1, 32) // single warp
	idx := int64(-1)
	for pc, in := range k.Code {
		if in.Op == isa.FADD {
			idx = int64(pc)
			break
		}
	}
	g := NewGPU(DefaultConfig(), 512)
	for i := 0; i < 32; i++ {
		g.SetFloat32(i, float32(i))
		g.SetFloat32(32+i, float32(i))
	}
	g.Fault = &FaultPlan{TargetDynInstr: idx, Lane: 3, BitMask: 1 << 22}
	st, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trapped || st.PipelineDUEs > 0 {
		t.Error("baseline has no detection mechanism")
	}
	if g.Float32(64+3) == float32(2*3) {
		t.Error("fault did not corrupt the output — injection broken")
	}
}

func TestECCCleanRunNoFalsePositives(t *testing.T) {
	// Error-free Swap-ECC execution must never flag a DUE: the WAW swap
	// protocol leaves every register consistent.
	base := vecAddKernel(128, 2, 64)
	for _, s := range []compiler.Scheme{compiler.SwapECC, compiler.SwapPredictMAD, compiler.SwapPredictFpMAD} {
		k := compiler.MustApply(base, s)
		cfg := DefaultConfig()
		cfg.ECC = true
		g := NewGPU(cfg, 512)
		for i := 0; i < 128; i++ {
			g.SetFloat32(i, float32(i))
			g.SetFloat32(128+i, 1)
		}
		st, err := g.Launch(k)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if st.PipelineDUEs != 0 || st.StorageDUEs != 0 {
			t.Errorf("%v: false positives: %d pipeline, %d storage DUEs", s, st.PipelineDUEs, st.StorageDUEs)
		}
	}
}

func TestOversizedKernelFailsLaunch(t *testing.T) {
	a := compiler.NewAsm("huge")
	a.MovI(isa.Reg(250), 1)
	a.Exit()
	k := a.MustBuild(1, 1024, 0)
	g := NewGPU(DefaultConfig(), 16)
	if _, err := g.Launch(k); err == nil {
		t.Error("kernel with 251 regs x 1024 threads should not fit")
	}
}

func TestOutOfBoundsAccessReported(t *testing.T) {
	a := compiler.NewAsm("oob")
	const rAddr = isa.Reg(0)
	a.MovI(rAddr, 1<<20)
	a.Ldg(1, rAddr, 0)
	a.Exit()
	g := NewGPU(DefaultConfig(), 64)
	if _, err := g.Launch(a.MustBuild(1, 32, 0)); err == nil {
		t.Error("out-of-bounds load not reported")
	}
}

func TestBypassAblationSpeedsDependentChains(t *testing.T) {
	a := compiler.NewAsm("chain")
	const rAcc = isa.Reg(0)
	a.MovI(rAcc, 1)
	for i := 0; i < 200; i++ {
		a.IAddI(rAcc, rAcc, 1)
	}
	a.Stg(isa.RZ, 0, rAcc)
	a.Exit()
	k := a.MustBuild(1, 32, 0)
	g := NewGPU(DefaultConfig(), 16)
	noBypass, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BypassSaving = 3
	g2 := NewGPU(cfg, 16)
	bypass, err := g2.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if !(bypass.Cycles < noBypass.Cycles) {
		t.Errorf("bypass %d !< no-bypass %d", bypass.Cycles, noBypass.Cycles)
	}
	if g.Int32(0) != 201 || g2.Int32(0) != 201 {
		t.Error("chain result wrong")
	}
}

// TestIssueWidthDoesNotChangeResults: timing knobs (dual-issue width) must
// never alter functional output — only cycles.
func TestIssueWidthDoesNotChangeResults(t *testing.T) {
	k := vecAddKernel(200, 4, 64)
	const n = 200
	results := map[int][]uint32{}
	cyc := map[int]int64{}
	for _, width := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.IssuePerSched = width
		g := NewGPU(cfg, 3*n+64)
		for i := 0; i < n; i++ {
			g.SetFloat32(i, float32(i))
			g.SetFloat32(n+i, float32(2*i))
		}
		st, err := g.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint32, n)
		copy(out, g.Mem[2*n:3*n])
		results[width] = out
		cyc[width] = st.Cycles
	}
	for i := range results[1] {
		if results[1][i] != results[2][i] {
			t.Fatalf("output differs at %d between issue widths", i)
		}
	}
	if cyc[2] > cyc[1] {
		t.Errorf("dual issue slower: %d vs %d", cyc[2], cyc[1])
	}
}

// TestStallAttribution: a serial pointer-chase is dependency-stalled; a
// dense FP64 stream throttles on the FP64 pipe; a lone warp waiting at a
// two-warp barrier... is released (barrier stalls appear transiently).
func TestStallAttribution(t *testing.T) {
	// Dependency-bound: serial loads.
	a := compiler.NewAsm("chase")
	const rP = isa.Reg(0)
	a.S2R(rP, isa.SRTid)
	for i := 0; i < 8; i++ {
		a.Ldg(rP, rP, 0)
	}
	a.Stg(isa.RZ, 32, rP)
	a.Exit()
	g := NewGPU(DefaultConfig(), 64)
	st, err := g.Launch(a.MustBuild(1, 32, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.StallDeps == 0 || st.StallDeps < st.StallThrottle {
		t.Errorf("pointer chase: deps=%d throttle=%d, want dep-dominated", st.StallDeps, st.StallThrottle)
	}

	// Throughput-bound: many warps of independent FP64 work.
	b := compiler.NewAsm("fp64burn")
	b.S2R(0, isa.SRTid)
	for i := 0; i < 16; i++ {
		b.DMul(isa.Reg(2+2*(i%4)), isa.Reg(2+2*(i%4)), isa.Reg(2+2*((i+1)%4)))
	}
	b.Exit()
	g2 := NewGPU(DefaultConfig(), 16)
	st2, err := g2.Launch(b.MustBuild(16, 128, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st2.StallThrottle == 0 {
		t.Errorf("fp64 burn: no throttle stalls (deps=%d)", st2.StallDeps)
	}
}

// TestWideFaultHighWord covers BitMaskHi: a fault in the high half of a
// wide (64-bit) result corrupts only the odd register of the pair.
func TestWideFaultHighWord(t *testing.T) {
	a := compiler.NewAsm("widefault")
	const (
		rTid, rX, rY = isa.Reg(0), isa.Reg(1), isa.Reg(2)
		rC           = isa.Reg(4) // pair
		rZ           = isa.Reg(6) // pair
	)
	a.S2R(rTid, isa.SRTid)
	a.MovI(rX, 3)
	a.MovI(rY, 5)
	a.MovI(rC, 0)
	a.MovI(rC+1, 0)
	a.IMadWide(rZ, rX, rY, rC)
	a.ShlI(rX, rTid, 1)
	a.Stg(rX, 0, rZ)
	a.Stg(rX, 1, rZ+1)
	a.Exit()
	k := a.MustBuild(1, 32, 0)
	g := NewGPU(DefaultConfig(), 128)
	g.Fault = &FaultPlan{TargetDynInstr: 5, Lane: 2, BitMaskHi: 1 << 9} // the IMAD.WIDE
	if _, err := g.Launch(k); err != nil {
		t.Fatal(err)
	}
	if !g.Fault.Applied {
		t.Fatal("fault not applied")
	}
	for i := 0; i < 32; i++ {
		lo, hi := g.Mem[2*i], g.Mem[2*i+1]
		wantLo, wantHi := uint32(15), uint32(0)
		if i == 2 {
			wantHi ^= 1 << 9
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("lane %d: (%#x,%#x), want (%#x,%#x)", i, lo, hi, wantLo, wantHi)
		}
	}
}

// TestDeterministicReplay: two identical launches produce identical stats
// and memory — the property checkpoint/restart recovery relies on.
func TestDeterministicReplay(t *testing.T) {
	k := compiler.MustApply(vecAddKernel(200, 4, 64), compiler.SwapECC)
	run := func() (*Stats, []uint32) {
		g := NewGPU(DefaultConfig(), 664)
		for i := 0; i < 200; i++ {
			g.SetFloat32(i, float32(i))
			g.SetFloat32(200+i, 1)
		}
		st, err := g.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		m := make([]uint32, len(g.Mem))
		copy(m, g.Mem)
		return st, m
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1.Cycles != s2.Cycles || s1.DynWarpInstrs != s2.DynWarpInstrs {
		t.Fatalf("non-deterministic stats: %d/%d vs %d/%d", s1.Cycles, s1.DynWarpInstrs, s2.Cycles, s2.DynWarpInstrs)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("non-deterministic memory at %d", i)
		}
	}
}
