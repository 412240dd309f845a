// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig12 -workers 4
//	experiments -exp fig10,fig11 -tuples 10000 -seed 1
//	experiments -submit localhost:9090 -exp fig10,fig12
//
// Experiments: headline table1 table2 table3 table4 fig10 fig11 fig12
// fig13 cpistack memcpi fig14 fig15 fig16 smprof verify all. ("all" covers
// the tables and figures; "headline" recomputes the paper-vs-measured claim
// summary; "cpistack" decomposes each scheme's Figure 12 slowdown into
// per-kernel cycle stacks and a baseline-diff attribution table; "memcpi"
// re-runs the Figure 12 sweep with the sectored L1/MSHR/L2/DRAM memory
// hierarchy armed (sm.Config.MemModel) and reports each kernel's idle share
// by hierarchy level alongside the cache hit rates; "smprof" profiles the
// partitioned round loop itself — rounds, idle rounds, the cycles
// idle-skip saves and the partitions' load balance per workload x scheme
// of the flat-memory Figure 12 sweep, all deterministic — and is opt-in
// like "verify", which runs the differential verifier — every workload x
// scheme x optimization combo linted and checked for architectural
// equivalence against baseline — and is not part of "all" since it
// replays the whole workload suite 68 times.)
//
// Experiments run concurrently as jobs on one engine pool (-workers, default
// all cores), after the one injection campaign that fig10, fig11 and the
// headline share, which runs first on the whole pool; simulation and
// injection results are bit-identical at any worker count, and output is
// printed in the canonical experiment order regardless of completion order.
// Ctrl-C, SIGTERM or -timeout cancels the run and reports what finished.
//
// With -submit the server-backed experiments (headline, fig10, fig11,
// fig12, cpistack, memcpi, fig15, fig16, verify) run as jobs on a swapserve
// instead of locally — duplicates sharing a spec (fig10/fig11) collapse
// into one submission, and a warm server answers identical respins from
// its content-addressed cache; -timeout bounds the whole exchange. See
// EXPERIMENTS.md "Running the job server".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"swapcodes/internal/cli"
	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
	"swapcodes/internal/sm"
	"swapcodes/internal/verify"
)

// options are the flags only experiments takes.
type options struct {
	exp, csvDir, verilogDir string
	tuples                  int
	seed                    int64
	chart                   bool
}

func main() {
	var f cli.Flags
	f.Register(flag.CommandLine, "workers", "mem-model", "timeout", "metrics", "trace",
		"metrics-interval", "serve", "submit", "tenant")
	var o options
	flag.StringVar(&o.exp, "exp", "all", "comma-separated experiments to run (headline, table1..table4, fig10..fig16, cpistack, memcpi, smprof, verify, all)")
	flag.IntVar(&o.tuples, "tuples", 10000, "input tuples per unit for the fig10/fig11 injection campaign")
	flag.Int64Var(&o.seed, "seed", 1, "campaign master seed (results are bit-identical for a given seed at any -workers)")
	flag.StringVar(&o.csvDir, "csv", "", "also write plot-ready CSV files into this directory")
	flag.BoolVar(&o.chart, "chart", false, "render the performance figures as ASCII bar charts")
	flag.StringVar(&o.verilogDir, "verilog", "", "export the synthesized units as structural Verilog into this directory")
	flag.Parse()
	if err := run(&f, o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run selects the experiments, then runs them locally or, with -submit, on
// a swapserve, between the lifecycle's Start and its deferred End.
func run(f *cli.Flags, o options) (err error) {
	mem, err := sm.ParseMemModel(f.MemModel)
	if err != nil {
		return err
	}
	selected, err := selectExperiments(experiments(o.tuples, o.seed, mem), o.exp, f.Submit != "")
	if err != nil {
		return err
	}
	r, err := f.Start(false)
	if err != nil {
		return err
	}
	defer r.End(&err)
	if f.Submit != "" {
		return submit(r, f, selected)
	}
	return runLocal(r, f, o, selected)
}

// experiment is one -exp name: how it runs locally and, when a swapserve
// can run it, the job spec that does.
type experiment struct {
	name string
	spec *jobs.Spec // nil: local only
	run  func(ctx context.Context, l *local) (string, error)
}

// local is what the experiments of a local run share.
type local struct {
	pool *engine.Pool
	// cells serves every perf sweep of the run (fig12, fig13, cpistack,
	// memcpi, fig15, fig16, smprof and the headline's three) and both
	// Figure 14 power estimates, so each distinct (workload, scheme, memory
	// model) cell is launched once per run, however many experiments share
	// it.
	cells *harness.Store
	// inj is the one injection campaign fig10, fig11 and the headline read;
	// it runs before the experiment jobs start.
	inj    *harness.InjectionResult
	chart  bool
	csvDir string
	csvMu  sync.Mutex
	csvErr error
}

func (l *local) sweep(ctx context.Context, schemes []compiler.Scheme, mem string) (*harness.PerfResult, error) {
	return harness.RunPerfCtxOpts(ctx, l.pool, schemes, true, harness.Options{MemModel: mem, Cells: l.cells})
}

// writeCSV writes one -csv file. A failure must not os.Exit past End's
// flush; the first one is remembered and surfaces after the run.
func (l *local) writeCSV(name, content string) {
	if l.csvDir == "" {
		return
	}
	l.csvMu.Lock()
	defer l.csvMu.Unlock()
	path := filepath.Join(l.csvDir, name)
	err := os.MkdirAll(l.csvDir, 0o755)
	if err == nil {
		err = os.WriteFile(path, []byte(content), 0o644)
	}
	if err != nil {
		if l.csvErr == nil {
			l.csvErr = err
		}
		return
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
}

// experiments is the one experiment table, in canonical order: the -exp
// name space, and the order the output is printed in however the jobs are
// scheduled. Perf sweeps read -mem-model (mem) unless they say otherwise.
func experiments(tuples int, seed int64, mem string) []experiment {
	campaign := &jobs.Spec{Kind: jobs.KindCampaign, Tuples: tuples, Seed: seed}
	sweepSpec := func(kind string, schemes []compiler.Scheme, mem string) *jobs.Spec {
		spec := &jobs.Spec{Kind: kind, MemModel: mem}
		for _, s := range schemes {
			spec.Schemes = append(spec.Schemes, harness.SchemeName(s))
		}
		return spec
	}
	return []experiment{
		{"headline", &jobs.Spec{Kind: jobs.KindHeadline, Tuples: tuples, Seed: seed}, func(ctx context.Context, l *local) (string, error) {
			// The headline is a flat-memory table whatever -mem-model says.
			rows, err := harness.HeadlineCtx(ctx, l.pool, l.inj.PooledSDC, harness.Options{Cells: l.cells})
			if err != nil {
				return "", err
			}
			return harness.RenderHeadline(rows), nil
		}},
		{"table1", nil, func(context.Context, *local) (string, error) { return harness.Table1(), nil }},
		{"table2", nil, func(context.Context, *local) (string, error) { return harness.Table2(), nil }},
		{"table3", nil, func(context.Context, *local) (string, error) { return harness.Table3(), nil }},
		{"table4", nil, func(_ context.Context, l *local) (string, error) {
			rows := harness.Table4()
			l.writeCSV("table4.csv", harness.Table4CSV(rows))
			return harness.RenderTable4(rows), nil
		}},
		{"fig10", campaign, func(_ context.Context, l *local) (string, error) {
			l.writeCSV("fig10_fig11.csv", l.inj.CSV())
			if tl := l.inj.RenderThroughput(); tl != "" {
				fmt.Fprintf(os.Stderr, "experiments: %s\n", tl)
			}
			return l.inj.RenderFig10() + "\n" + l.inj.RenderConeStats(), nil
		}},
		{"fig11", campaign, func(_ context.Context, l *local) (string, error) {
			out := l.inj.RenderFig11()
			out += fmt.Sprintf("pooled detection coverage: SEC-DED %.2f%%, Mod-127 %.2f%% (paper: >98.8%% / >99.3%%)\n",
				100*l.inj.DetectionCoverage(codeByName("SEC-DED-DP")),
				100*l.inj.DetectionCoverage(codeByName("Mod-127")))
			return out, nil
		}},
		{"fig12", sweepSpec(jobs.KindPerf, harness.Fig12Schemes(), mem), func(ctx context.Context, l *local) (string, error) {
			perf, err := l.sweep(ctx, harness.Fig12Schemes(), mem)
			if err != nil {
				return "", err
			}
			out := perf.Render("Figure 12: slowdown over the un-duplicated program (Tesla P100-class SM model)")
			if l.chart {
				out += "\n" + perf.Chart("Figure 12 (chart)", 120)
			}
			l.writeCSV("fig12.csv", perf.CSV())
			return out, nil
		}},
		{"fig13", nil, func(ctx context.Context, l *local) (string, error) {
			perf, err := l.sweep(ctx, harness.Fig12Schemes(), mem)
			if err != nil {
				return "", err
			}
			mix := harness.RunCodeMix(perf)
			l.writeCSV("fig13.csv", mix.CSV())
			return mix.Render(), nil
		}},
		{"cpistack", sweepSpec(jobs.KindCPIStack, harness.Fig12Schemes(), mem), func(ctx context.Context, l *local) (string, error) {
			perf, err := l.sweep(ctx, harness.Fig12Schemes(), mem)
			if err != nil {
				return "", err
			}
			cs := harness.CPIStacks(perf)
			out := cs.Render("CPI stacks: where each scheme's cycles go (headline sweep)")
			out += "\n" + cs.RenderAttribution("Slowdown attribution vs unprotected baseline")
			if l.chart {
				out += "\n" + cs.Chart("CPI stacks (chart)")
			}
			l.writeCSV("cpistack.csv", cs.CSV())
			return out, nil
		}},
		{"memcpi", sweepSpec(jobs.KindCPIStack, harness.Fig12Schemes(), "sectored"), func(ctx context.Context, l *local) (string, error) {
			perf, err := l.sweep(ctx, harness.Fig12Schemes(), "sectored")
			if err != nil {
				return "", err
			}
			mc := harness.MemCPI(perf)
			out := mc.Render("Memory CPI: idle share by hierarchy level (Figure 12 sweep, sectored model)")
			if l.chart {
				cs := harness.CPIStacks(perf)
				out += "\n" + cs.Chart("CPI stacks with memory tiers (chart)")
			}
			l.writeCSV("memcpi.csv", mc.CSV())
			return out, nil
		}},
		{"fig14", nil, func(ctx context.Context, l *local) (string, error) {
			// Like the headline, Figure 14 is flat-memory whatever
			// -mem-model says.
			pr, err := harness.RunPower(ctx, l.pool, harness.Options{Cells: l.cells})
			if err != nil {
				return "", err
			}
			l.writeCSV("fig14.csv", pr.CSV())
			return pr.Render() +
				fmt.Sprintf("worst power overhead: %.0f%% (paper: <=15%%)\n", 100*(pr.MaxRelPower()-1)), nil
		}},
		{"fig15", sweepSpec(jobs.KindPerf, harness.Fig15Schemes(), mem), func(ctx context.Context, l *local) (string, error) {
			perf, err := l.sweep(ctx, harness.Fig15Schemes(), mem)
			if err != nil {
				return "", err
			}
			l.writeCSV("fig15.csv", perf.CSV())
			return perf.Render("Figure 15: inter-thread duplication slowdown (fails on mm: CTA size; snap: shuffles)"), nil
		}},
		{"fig16", sweepSpec(jobs.KindPerf, harness.Fig16Schemes(), mem), func(ctx context.Context, l *local) (string, error) {
			perf, err := l.sweep(ctx, harness.Fig16Schemes(), mem)
			if err != nil {
				return "", err
			}
			l.writeCSV("fig16.csv", perf.CSV())
			return perf.Render("Figure 16: Swap-Predict with plausible future check-bit predictors"), nil
		}},
		{"smprof", nil, func(ctx context.Context, l *local) (string, error) {
			// The profile reads the flat-memory Figure 12 sweep whatever
			// -mem-model says.
			perf, err := l.sweep(ctx, harness.Fig12Schemes(), "")
			if err != nil {
				return "", err
			}
			res := harness.SMProf(perf)
			l.writeCSV("smprof.csv", res.CSV())
			return res.Render("SM round-loop profile: rounds, idle-skip and partition balance"), nil
		}},
		{"verify", &jobs.Spec{Kind: jobs.KindVerify}, func(ctx context.Context, l *local) (string, error) {
			res, err := harness.RunVerifyCtx(ctx, l.pool, verify.Matrix())
			if err != nil {
				return "", err
			}
			out := res.Render("Differential verification: workloads x schemes x {DCE, Schedule, DisableMoveProp}")
			if n := res.Failed(); n > 0 {
				return out, fmt.Errorf("verify: %d combo cells failed", n)
			}
			return out, nil
		}},
	}
}

// selectExperiments applies the -exp rule: the named experiments and, for
// "all", every one but verify (it replays the whole workload suite across
// 68 combos) and smprof (it profiles the simulator, not the paper). Unknown
// names are refused; under -submit so are named local-only experiments,
// and "all" skips them.
func selectExperiments(table []experiment, exp string, submit bool) ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	delete(want, "all")
	var selected []experiment
	var served, refused []string
	for _, e := range table {
		named := want[e.name]
		delete(want, e.name)
		switch {
		case e.spec != nil:
			served = append(served, e.name)
		case submit && named:
			refused = append(refused, e.name)
			continue
		case submit:
			continue
		}
		if named || all && e.name != "verify" && e.name != "smprof" {
			selected = append(selected, e)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	if len(refused) > 0 {
		return nil, fmt.Errorf("experiment %q cannot run via -submit (server-backed: %s)",
			refused[0], strings.Join(served, ", "))
	}
	return selected, nil
}

// runLocal runs the selected experiments concurrently as jobs on one engine
// pool, after the injection campaign when any of them reads it, and prints
// their outputs in canonical order.
func runLocal(r *cli.Run, f *cli.Flags, o options, selected []experiment) error {
	pool := engine.New(f.Workers)
	pool.SetObs(r.Rec)
	if f.Serve != "" {
		if _, err := r.Serve(f.Serve, obs.ServerConfig{Runs: func() any { return pool.Tracker().Snapshot() }}); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: workers=%d seed=%d tuples=%d\n", pool.Workers(), o.seed, o.tuples)
	r.Progress(func() string {
		return fmt.Sprintf("experiments: %s; tuples=%d",
			pool.Tracker().Snapshot().String(), r.Rec.Registry().SumCounters("faultsim.tuples"))
	})

	if o.verilogDir != "" {
		if err := os.MkdirAll(o.verilogDir, 0o755); err != nil {
			return err
		}
		for _, u := range harness.Units() {
			path := filepath.Join(o.verilogDir, strings.ReplaceAll(u.Name, "-", "_")+".v")
			if err := os.WriteFile(path, []byte(u.Circuit.Verilog()), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "wrote", path)
		}
	}

	l := &local{pool: pool, cells: harness.NewStore(nil), chart: o.chart, csvDir: o.csvDir}
	// The campaign and headline jobs are the ones that read the campaign.
	needInj := false
	for _, e := range selected {
		needInj = needInj || e.spec != nil && (e.spec.Kind == jobs.KindCampaign || e.spec.Kind == jobs.KindHeadline)
	}
	// The campaign runs first, from this goroutine, so its engine.Map can
	// recruit every pool worker. Run inside an experiment job, it would
	// hold that job's pool token, and a job waiting for it would hold
	// another.
	start := time.Now()
	var injTime time.Duration
	var runErr error
	if needInj {
		l.inj, runErr = harness.RunInjectionCtx(r.Ctx, pool, o.tuples, o.seed)
		injTime = time.Since(start)
	}

	// All selected experiments run concurrently as engine jobs; the harness
	// drivers they call fan out further on the same pool, which keeps the
	// global worker bound. Output and timings are buffered per experiment
	// and printed in canonical order.
	outputs := make([]string, len(selected))
	times := make([]time.Duration, len(selected))
	runs := make([]engine.Job, len(selected))
	for i, e := range selected {
		runs[i] = engine.Job{Name: e.name, Run: func(ctx context.Context) error {
			start := time.Now()
			out, err := e.run(ctx, l)
			times[i] = time.Since(start)
			outputs[i] = out
			return err
		}}
	}
	if runErr == nil {
		runErr = pool.Run(r.Ctx, runs)
	}
	for i, e := range selected {
		if outputs[i] == "" {
			fmt.Fprintf(os.Stderr, "experiments: %s: no result (cancelled or failed)\n", e.name)
			continue
		}
		fmt.Println(outputs[i])
	}
	if injTime > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %-8s %8.2fs\n", "campaign", injTime.Seconds())
	}
	for i, e := range selected {
		if times[i] > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %-8s %8.2fs\n", e.name, times[i].Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: total %.2fs; engine: %s\n",
		time.Since(start).Seconds(), pool.Tracker().Snapshot().String())
	// End writes -metrics and -trace after this return, so a cancelled run
	// (Ctrl-C, SIGTERM, -timeout) still leaves its partial observations.
	if runErr != nil && r.Rec != nil {
		fmt.Fprintln(os.Stderr, "experiments: cancelled; writing partial metrics")
	}
	if runErr == nil {
		runErr = l.csvErr
	}
	return runErr
}

// submit is the -submit client mode: each selected experiment becomes its
// job spec on a running swapserve, which runs it (or answers it from its
// content-addressed cache) and returns the payload. Experiments that share
// a spec (fig10 and fig11) share one submission.
func submit(r *cli.Run, f *cli.Flags, selected []experiment) error {
	c := &jobs.Client{Base: f.Submit}
	payloads := map[string][]byte{}
	for _, e := range selected {
		spec := *e.spec
		spec.Tenant = f.Tenant
		norm := spec
		if err := norm.Normalize(); err != nil {
			return err
		}
		raw, ok := payloads[norm.Key()]
		if !ok {
			var err error
			if raw, err = c.RunJob(r.Ctx, spec, r.Logf); err != nil {
				return err
			}
			payloads[norm.Key()] = raw
		}
		fmt.Printf("== %s ==\n%s\n", e.name, jobs.RenderPayload(raw))
	}
	return nil
}

func codeByName(name string) interface {
	Name() string
	CheckBits() int
	Encode(uint32) uint32
	Detects(uint32, uint32) bool
} {
	for _, c := range harness.Fig11Codes() {
		if c.Name() == name {
			return c
		}
	}
	panic("unknown code " + name)
}
