package harness

import (
	"context"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/isa"
)

func TestTablesRender(t *testing.T) {
	for name, s := range map[string]string{
		"table1": Table1(), "table2": Table2(), "table3": Table3(),
	} {
		if len(s) < 100 {
			t.Errorf("%s suspiciously short", name)
		}
	}
	if !strings.Contains(Table3(), "1110") {
		t.Error("Table III missing the -1 signal")
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	rows := Table4()
	if len(rows) != 13 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Unit] = r
		if r.Area <= 0 {
			t.Errorf("%s: empty circuit", r.Unit)
		}
	}
	// The qualitative Table IV relations.
	if byName["MAD"].Area < 5*byName["Add"].Area {
		t.Error("MAD should dwarf Add")
	}
	if byName["Add"].FFs != 96 {
		t.Errorf("Add FFs %d, want 96", byName["Add"].FFs)
	}
	if r := byName["Pred MAD Mod-3"]; r.Overhead < 0 || r.Overhead > 0.05 {
		t.Errorf("Mod-3 MAD prediction overhead %.3f, paper ~0.01", r.Overhead)
	}
	if r := byName["Move-Propagate"]; r.Overhead < 0.1 || r.Overhead > 0.6 {
		t.Errorf("move-propagate overhead %.2f, paper ~0.27", r.Overhead)
	}
	if out := RenderTable4(rows); !strings.Contains(out, "Move-Propagate") {
		t.Error("render incomplete")
	}
}

func TestRunPerfFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	perf, err := RunPerfCtxOpts(context.Background(), engine.New(0), Fig12Schemes(), true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(perf.Rows) != 15 {
		t.Fatalf("%d rows", len(perf.Rows))
	}
	mDup := perf.MeanSlowdown(compiler.SWDup)
	mSwap := perf.MeanSlowdown(compiler.SwapECC)
	mAdd := perf.MeanSlowdown(compiler.SwapPredictAddSub)
	mMAD := perf.MeanSlowdown(compiler.SwapPredictMAD)
	// Paper: 49% / 21% / 16% / 15%. Require the ordering plus loose bands.
	if !(mDup > mSwap && mSwap > mAdd && mAdd >= mMAD) {
		t.Errorf("mean ordering broken: %.2f %.2f %.2f %.2f", mDup, mSwap, mAdd, mMAD)
	}
	if mDup < 0.30 || mDup > 0.80 {
		t.Errorf("SW-Dup mean %.2f outside band (paper 0.49)", mDup)
	}
	if mSwap < 0.12 || mSwap > 0.40 {
		t.Errorf("Swap-ECC mean %.2f outside band (paper 0.21)", mSwap)
	}
	if mMAD < 0.05 || mMAD > 0.25 {
		t.Errorf("Pre MAD mean %.2f outside band (paper 0.15)", mMAD)
	}
	// Swap-ECC's worst case is lavaMD, as in the paper.
	_, worst := perf.WorstSlowdown(compiler.SwapECC)
	if worst != "lavaMD" {
		t.Errorf("Swap-ECC worst case %s, paper: lavaMD", worst)
	}
	if out := perf.Render("t"); !strings.Contains(out, "MEAN") {
		t.Error("render incomplete")
	}

	// Figure 13 from the same sweep.
	mix := RunCodeMix(perf)
	lo, hi := mix.CheckingBloatRange()
	if lo < 0.005 || hi > 0.8 || lo >= hi {
		t.Errorf("checking range [%.2f, %.2f] implausible (paper 0.11..0.35)", lo, hi)
	}
	bDup := mix.MeanBloat(compiler.SWDup)
	bSwap := mix.MeanBloat(compiler.SwapECC)
	bMAD := mix.MeanBloat(compiler.SwapPredictMAD)
	if !(bDup > bSwap && bSwap > bMAD) {
		t.Errorf("bloat ordering broken: %.2f %.2f %.2f (paper 0.91/0.63/0.33)", bDup, bSwap, bMAD)
	}
	if out := mix.Render(); !strings.Contains(out, "checking") {
		t.Error("mix render incomplete")
	}
}

func TestRunInjectionSmall(t *testing.T) {
	inj, err := RunInjectionCtx(context.Background(), engine.New(0), 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Units) != 6 {
		t.Fatalf("%d units", len(inj.Units))
	}
	for _, u := range inj.Units {
		if len(u.Injections) < 300 {
			t.Errorf("%s: only %d unmasked injections", u.Unit.Name, len(u.Injections))
		}
		one, _, _ := u.SeverityFrac(faultsim.OneBit)
		if one < 0.2 {
			t.Errorf("%s: single-bit fraction %.2f implausibly low", u.Unit.Name, one)
		}
	}
	// Figure 11 orderings: stronger codes, lower pooled SDC.
	parity, _ := inj.PooledSDC(ecc.Parity{})
	mod3, _ := inj.PooledSDC(ecc.NewResidue(2))
	mod127, _ := inj.PooledSDC(ecc.NewResidue(7))
	ted, _ := inj.PooledSDC(ecc.NewTED())
	if !(parity > mod3 && mod3 >= mod127) {
		t.Errorf("code ordering: parity %.3f mod3 %.3f mod127 %.3f", parity, mod3, mod127)
	}
	if mod3 > 0.05 {
		t.Errorf("Mod-3 SDC %.3f, paper <5%%", mod3)
	}
	// Headline coverage claims.
	if cov := inj.DetectionCoverage(ecc.NewSECDEDDP()); cov < 0.97 {
		t.Errorf("SEC-DED coverage %.3f, paper >0.988", cov)
	}
	if cov := inj.DetectionCoverage(ecc.NewResidue(7)); cov < 0.99 {
		t.Errorf("Mod-127 coverage %.3f, paper >0.993", cov)
	}
	_ = ted
	if s := inj.RenderFig10(); !strings.Contains(s, "Fp-MAD64") {
		t.Error("fig10 render")
	}
	if s := inj.RenderFig11(); !strings.Contains(s, "Mod-127") {
		t.Error("fig11 render")
	}
}

func TestRunPowerFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("power sweep")
	}
	pr, err := RunPower(context.Background(), engine.New(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Rows) != 8 { // 2 workloads x 4 schemes
		t.Fatalf("%d rows", len(pr.Rows))
	}
	if mp := pr.MaxRelPower(); mp > 1.25 {
		t.Errorf("max relative power %.2f, paper <=1.15", mp)
	}
	// Energy overhead tracks slowdown: SW-Dup on snap should cost far more
	// energy than Swap-ECC on snap.
	var dupE, swapE float64
	for _, r := range pr.Rows {
		if r.Workload == "snap" && r.Scheme == compiler.SWDup {
			dupE = r.RelEnergy
		}
		if r.Workload == "snap" && r.Scheme == compiler.SwapECC {
			swapE = r.RelEnergy
		}
	}
	if !(dupE > swapE && swapE < 1.5 && dupE > 1.5) {
		t.Errorf("snap energy: SW-Dup %.2fx vs Swap-ECC %.2fx (paper: >2x vs 1.11x)", dupE, swapE)
	}
	if s := pr.Render(); !strings.Contains(s, "snap") {
		t.Error("render")
	}
}

func TestFig15FailuresRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	perf, err := RunPerfCtxOpts(context.Background(), engine.New(0), Fig15Schemes(), false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range perf.Rows {
		switch row.Workload {
		case "mm", "snap":
			if _, failed := row.Errs[compiler.InterThread]; !failed {
				t.Errorf("%s: inter-thread should fail", row.Workload)
			}
		default:
			if row.Stats[compiler.InterThread] == nil {
				t.Errorf("%s: inter-thread missing", row.Workload)
			}
		}
	}
	// The checking-free variant is never slower than the checked one.
	for _, row := range perf.Rows {
		a, b := row.Stats[compiler.InterThread], row.Stats[compiler.InterThreadNoCheck]
		if a != nil && b != nil && b.Cycles > a.Cycles+a.Cycles/20 {
			t.Errorf("%s: no-check (%d) slower than checked (%d)", row.Workload, b.Cycles, a.Cycles)
		}
	}
}

func TestFig11CodesList(t *testing.T) {
	codes := Fig11Codes()
	if len(codes) != 10 {
		t.Fatalf("%d codes", len(codes))
	}
	names := map[string]bool{}
	for _, c := range codes {
		names[c.Name()] = true
	}
	for _, want := range []string{"Parity", "Mod-3", "Mod-127", "TED", "SEC-DED-DP", "SEC-DP"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
	_ = isa.CatChecking
}

func TestHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	pool := engine.New(0)
	inj, err := RunInjectionCtx(context.Background(), pool, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := HeadlineCtx(context.Background(), pool, inj.PooledSDC, Options{Cells: NewCellStore(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("%d rows", len(rows))
	}
	out := RenderHeadline(rows)
	for _, want := range []string{"SW-Dup mean", "Mod-127", "lavaMD", "Fp-MAD projection"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline missing %q", want)
		}
	}
}
