package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
)

// campaignTuples is the per-unit tuple count of one campaign op.
const campaignTuples = 2000

// campaignSeedCycle bounds the distinct op seeds one run draws: op i of a
// run with seed s injects with seed s*1000 + i%campaignSeedCycle, so the
// golden file can pin every campaign op of seed 1.
const campaignSeedCycle = 32

// campaignOpSeed is the -seed `experiments -exp fig10,fig11` reproduces op i
// with.
func campaignOpSeed(seed int64, i int) int64 {
	return seed*1000 + int64(i%campaignSeedCycle)
}

func fig12SchemeNames() []string {
	var out []string
	for _, s := range harness.Fig12Schemes() {
		out = append(out, harness.SchemeName(s))
	}
	return out
}

// renderFig12 is what `experiments -exp fig12,fig13,cpistack` prints on
// stdout, so the golden digest can be checked against that command.
func renderFig12(perf *harness.PerfResult) string {
	fig12 := perf.Render("Figure 12: slowdown over the un-duplicated program (Tesla P100-class SM model)")
	fig13 := harness.RunCodeMix(perf).Render()
	cs := harness.CPIStacks(perf)
	cpi := cs.Render("CPI stacks: where each scheme's cycles go (headline sweep)") +
		"\n" + cs.RenderAttribution("Slowdown attribution vs unprotected baseline")
	return fig12 + "\n" + fig13 + "\n" + cpi + "\n"
}

// renderMemCPI is what `experiments -exp memcpi` prints on stdout.
func renderMemCPI(perf *harness.PerfResult) string {
	return harness.MemCPI(perf).Render("Memory CPI: idle share by hierarchy level (Figure 12 sweep, sectored model)") + "\n"
}

// renderCampaign is what `experiments -exp fig10,fig11 -tuples 2000 -seed
// <op seed>` prints on stdout.
func renderCampaign(inj *harness.InjectionResult) string {
	fig10 := inj.RenderFig10() + "\n" + inj.RenderConeStats()
	fig11 := inj.RenderFig11() +
		fmt.Sprintf("pooled detection coverage: SEC-DED %.2f%%, Mod-127 %.2f%% (paper: >98.8%% / >99.3%%)\n",
			100*inj.DetectionCoverage(fig11Code("SEC-DED-DP")),
			100*inj.DetectionCoverage(fig11Code("Mod-127")))
	return fig10 + "\n" + fig11 + "\n"
}

func fig11Code(name string) ecc.Code {
	for _, c := range harness.Fig11Codes() {
		if c.Name() == name {
			return c
		}
	}
	panic("swapbench: no Figure 11 code " + name)
}

// verifyCampaign is the campaign op's functional check: every unit injected
// a plausible number of tuples, every recorded golden output matches the
// unit's reference model, and every injection recorded as unmasked really
// changed the output.
func verifyCampaign(inj *harness.InjectionResult, tuples int) error {
	if len(inj.Units) != 6 {
		return fmt.Errorf("campaign: %d units, want 6", len(inj.Units))
	}
	for _, u := range inj.Units {
		if n := len(u.Injections); n == 0 || n > tuples {
			return fmt.Errorf("campaign: %s: %d injections for %d tuples", u.Unit.Name, n, tuples)
		}
		for _, in := range u.Injections {
			if u.Unit.Ref(in.Ops) != in.Golden {
				return fmt.Errorf("campaign: %s: golden output disagrees with the reference model", u.Unit.Name)
			}
			if in.Faulty == in.Golden {
				return fmt.Errorf("campaign: %s: masked injection recorded as unmasked", u.Unit.Name)
			}
		}
	}
	return nil
}

// opFunc runs closed-loop op i on the pool and returns its rendered output.
type opFunc func(ctx context.Context, pool *engine.Pool, i int) (string, error)

func fig12Op(ctx context.Context, pool *engine.Pool, _ int) (string, error) {
	perf, err := harness.RunPerfCtxOpts(ctx, pool, harness.Fig12Schemes(), true, harness.Options{})
	if err != nil {
		return "", err
	}
	return renderFig12(perf), nil
}

func memcpiOp(ctx context.Context, pool *engine.Pool, _ int) (string, error) {
	perf, err := harness.RunPerfCtxOpts(ctx, pool, harness.Fig12Schemes(), true,
		harness.Options{MemModel: "sectored"})
	if err != nil {
		return "", err
	}
	return renderMemCPI(perf), nil
}

func campaignOp(seed int64) opFunc {
	return func(ctx context.Context, pool *engine.Pool, i int) (string, error) {
		inj, err := harness.RunInjectionCtx(ctx, pool, campaignTuples, campaignOpSeed(seed, i))
		if err != nil {
			return "", err
		}
		if err := verifyCampaign(inj, campaignTuples); err != nil {
			return "", err
		}
		return renderCampaign(inj), nil
	}
}

// loopBench is a closed-loop workload: one client goroutine runs ops back
// to back, each op fanning out on the engine pool.
type loopBench struct {
	cfg  config
	g    *golden
	pool *engine.Pool
	op   opFunc
	// seen maps a campaign op seed to the digest its first run produced, so
	// a repeated seed must reproduce it even where golden.json has none.
	seen map[int64]string
}

// closedLoopOp returns the op of a closed-loop workload.
func closedLoopOp(workload string, seed int64) (opFunc, error) {
	switch workload {
	case "fig12":
		return fig12Op, nil
	case "memcpi":
		return memcpiOp, nil
	case "campaign":
		return campaignOp(seed), nil
	}
	return nil, fmt.Errorf("not a closed-loop workload: %q", workload)
}

func newLoopBench(ctx context.Context, cfg config, g *golden) (*loopBench, error) {
	op, err := closedLoopOp(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &loopBench{cfg: cfg, g: g, pool: engine.New(cfg.nproc), op: op, seen: map[int64]string{}}
	// The warm-up op (the first measured op's twin) fills the lazy caches
	// and is discarded.
	out, err := b.op(ctx, b.pool, 0)
	if err == nil {
		err = b.check(0, out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", cfg.workload, err)
	}
	return b, nil
}

// check compares op i's output with the golden digest or, for a campaign
// op seed golden.json does not pin, with the seed's first output this run.
func (b *loopBench) check(i int, out string) error {
	d := digest([]byte(out))
	want := b.g.digest(b.cfg.workload, b.cfg.seed, i)
	if b.cfg.workload == "campaign" && want == "" {
		s := campaignOpSeed(b.cfg.seed, i)
		if want = b.seen[s]; want == "" {
			b.seen[s] = d
		}
	}
	if want != "" && d != want {
		return fmt.Errorf("%s op %d: output digest %s, want %s", b.cfg.workload, i, d[:16], want[:16])
	}
	return nil
}

// measure runs ops back to back until the window has passed, at least one.
func (b *loopBench) measure(ctx context.Context) (*opSamples, error) {
	f := &opSamples{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.cfg.window; i++ {
		if err := settle(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := b.op(ctx, b.pool, i)
		d := time.Since(t0)
		peak, perr := peakRSSMB()
		if perr != nil {
			return nil, perr
		}
		f.attempted++
		if err == nil {
			err = b.check(i, out)
		}
		if err != nil {
			f.failed++
			fmt.Fprintf(os.Stderr, "swapbench: %v\n", err)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		f.ops = append(f.ops, d.Seconds())
		f.rssMB = append(f.rssMB, peak)
	}
	return f, nil
}

func (b *loopBench) close() error { return nil }
