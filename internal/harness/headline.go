package harness

import (
	"context"
	"fmt"
	"strings"

	"swapcodes/internal/compiler"
	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
)

// HeadlineRow is one paper claim with its measured value.
type HeadlineRow struct {
	Claim    string
	Paper    string
	Measured string
}

// HeadlineCtx recomputes the paper's headline claims in one pass (the
// table EXPERIMENTS.md freezes) — the fastest way to check the whole
// artifact. Its three perf sweeps (Figure 12, Figure 15 and the Fp-MAD
// projection) and Figure 14's power run on the given pool and resolve
// their cells through opt.Cells, so a caller that passes the store of its
// other sweeps launches no cell twice. pooledSDC returns a register-file
// code's pooled Figure 11 SDC fraction and its Wilson upper bound, as
// InjectionResult.PooledSDC does, so the coverage claims come from the
// campaign the caller already ran for Figures 10 and 11.
func HeadlineCtx(ctx context.Context, pool *engine.Pool, pooledSDC func(ecc.Code) (frac, hi float64), opt Options) ([]HeadlineRow, error) {
	perf, err := RunPerfCtxOpts(ctx, pool, Fig12Schemes(), true, opt)
	if err != nil {
		return nil, err
	}
	mix := RunCodeMix(perf)
	pwr, err := RunPower(ctx, pool, opt)
	if err != nil {
		return nil, err
	}
	inter, err := RunPerfCtxOpts(ctx, pool, Fig15Schemes(), true, opt)
	if err != nil {
		return nil, err
	}
	fp, err := RunPerfCtxOpts(ctx, pool, []compiler.Scheme{compiler.SwapPredictFpMAD}, true, opt)
	if err != nil {
		return nil, err
	}

	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	worst := func(p *PerfResult, s compiler.Scheme) string {
		w, name := p.WorstSlowdown(s)
		return fmt.Sprintf("%.0f%% (%s)", 100*w, name)
	}
	lo, hi := mix.CheckingBloatRange()
	sdc := func(code ecc.Code) float64 { f, _ := pooledSDC(code); return f }

	rows := []HeadlineRow{
		{"SW-Dup mean slowdown", "49%", pct(perf.MeanSlowdown(compiler.SWDup))},
		{"SW-Dup worst case", "99% (b+tree)", worst(perf, compiler.SWDup)},
		{"Swap-ECC mean slowdown", "21%", pct(perf.MeanSlowdown(compiler.SwapECC))},
		{"Swap-ECC worst case", "78% (lavaMD)", worst(perf, compiler.SwapECC)},
		{"Pre AddSub mean slowdown", "16%", pct(perf.MeanSlowdown(compiler.SwapPredictAddSub))},
		{"Pre MAD mean slowdown", "15%", pct(perf.MeanSlowdown(compiler.SwapPredictMAD))},
		{"Pre MAD worst case", "74% (lavaMD)", worst(perf, compiler.SwapPredictMAD)},
		{"SW-Dup instruction bloat", "91%", pct(mix.MeanBloat(compiler.SWDup))},
		{"Swap-ECC instruction bloat", "63%", pct(mix.MeanBloat(compiler.SwapECC))},
		{"Pre MAD instruction bloat", "33%", pct(mix.MeanBloat(compiler.SwapPredictMAD))},
		{"Checking-code bloat range", "11%..35%", fmt.Sprintf("%.0f%%..%.0f%%", 100*lo, 100*hi)},
		{"Detection coverage, SEC-DED", ">98.8%", pct(1 - sdc(ecc.NewSECDEDDP()))},
		{"Detection coverage, Mod-127", ">99.3%", pct(1 - sdc(ecc.NewResidue(7)))},
		{"Mod-3 SDC risk", "<5%", pct(sdc(ecc.NewResidue(2)))},
		{"Worst power overhead", "<=15%", pct(pwr.MaxRelPower() - 1)},
		{"Inter-thread mean slowdown", "113%", pct(inter.MeanSlowdown(compiler.InterThread))},
		{"Inter-thread no-check mean", "57%", pct(inter.MeanSlowdown(compiler.InterThreadNoCheck))},
		{"Fp-MAD projection mean", "5%", pct(fp.MeanSlowdown(compiler.SwapPredictFpMAD))},
	}
	return rows, nil
}

// RenderHeadline prints the claim table.
func RenderHeadline(rows []HeadlineRow) string {
	var b strings.Builder
	b.WriteString("Headline claims: paper vs this reproduction\n")
	fmt.Fprintf(&b, "%-34s %-14s %s\n", "claim", "paper", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %-14s %s\n", r.Claim, r.Paper, r.Measured)
	}
	return b.String()
}
