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
// fig12, cpistack, fig15, fig16, verify) run as jobs on a swapserve
// instead of locally — duplicates sharing a spec (fig10/fig11) collapse
// into one submission, and a warm server answers identical respins from
// its content-addressed cache. See EXPERIMENTS.md "Running the job
// server".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
	"swapcodes/internal/sm"
	"swapcodes/internal/verify"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run (headline, table1..table4, fig10..fig16, cpistack, memcpi, smprof, verify, all)")
	tuples := flag.Int("tuples", 10000, "input tuples per unit for the fig10/fig11 injection campaign")
	seed := flag.Int64("seed", 1, "campaign master seed (results are bit-identical for a given seed at any -workers)")
	workers := flag.Int("workers", 0, "engine worker count (0 = all cores)")
	memModel := flag.String("mem-model", "", "SM memory timing model for the perf-sweep figures: off (flat latency, the default) or sectored (L1/MSHR/L2/DRAM hierarchy; -exp memcpi always runs sectored)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no limit)")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files into this directory")
	chart := flag.Bool("chart", false, "render the performance figures as ASCII bar charts")
	verilogDir := flag.String("verilog", "", "export the synthesized units as structural Verilog into this directory")
	metricsOut := flag.String("metrics", "", "write run metrics to this file (.json, .csv, anything else: aligned table)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file, loadable in Perfetto / chrome://tracing")
	metricsInterval := flag.Duration("metrics-interval", 0, "print a progress line to stderr at this interval (e.g. 5s)")
	serve := flag.String("serve", "", "serve live observability on this address (GET /metrics Prometheus text, /runs JSON, /debug/pprof)")
	submit := flag.String("submit", "", "submit the experiments to a running swapserve at this base URL (e.g. http://127.0.0.1:9090) instead of running locally")
	tenant := flag.String("tenant", "", "tenant fairness key for -submit (empty = default tenant)")
	flag.Parse()
	mem, err := sm.ParseMemModel(*memModel)
	fail(err)

	if *submit != "" {
		fail(runSubmit(*submit, *tenant, *exp, *tuples, *seed, mem))
		return
	}

	var rec *obs.Recorder
	if *metricsOut != "" || *traceOut != "" || *metricsInterval > 0 || *serve != "" {
		rec = obs.NewRecorder()
	}
	fail(run(rec, *exp, *tuples, *seed, *workers, mem, *timeout, *serve, *csvDir,
		*chart, *verilogDir, *metricsOut, *traceOut, *metricsInterval))
}

// run owns the experiment lifecycle so its defers fire on every exit path:
// the metrics/trace flush and the -serve shutdown happen on success, on
// cancellation (a signal, -timeout), on experiment failure, and during a
// panic unwind — a crashed run still leaves its partial observations.
func run(rec *obs.Recorder, exp string, tuples int, seed int64, workers int,
	memModel string, timeout time.Duration, serve, csvDir string, chart bool, verilogDir,
	metricsOut, traceOut string, metricsInterval time.Duration) (err error) {
	pool := engine.New(workers)
	pool.SetObs(rec)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The flush runs deferred — and exactly once — so partial observations
	// survive cancellation, failures, and panics.
	flusher := &obs.FileFlusher{Rec: rec, MetricsPath: metricsOut, TracePath: traceOut,
		Logf: func(path string) { fmt.Fprintln(os.Stderr, "wrote", path) }}
	defer func() {
		if ferr := flusher.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if serve != "" {
		srv, serr := obs.StartConfigured(obs.ServerConfig{Addr: serve, Registry: rec.Registry(),
			Runs: func() any { return pool.Tracker().Snapshot() }})
		if serr != nil {
			return serr
		}
		fmt.Fprintf(os.Stderr, "experiments: serving observability on %s\n", srv.URL())
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if serr := srv.Shutdown(sctx); serr != nil && err == nil {
				err = serr
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "experiments: workers=%d seed=%d tuples=%d\n",
		pool.Workers(), seed, tuples)
	stopProgress := obs.StartProgress(os.Stderr, metricsInterval, func() string {
		snap := pool.Tracker().Snapshot()
		return fmt.Sprintf("experiments: %s; tuples=%d",
			snap.String(), rec.Registry().SumCounters("faultsim.tuples"))
	})
	defer stopProgress()

	if verilogDir != "" {
		if err := os.MkdirAll(verilogDir, 0o755); err != nil {
			return err
		}
		for _, u := range harness.Units() {
			path := filepath.Join(verilogDir, strings.ReplaceAll(u.Name, "-", "_")+".v")
			if err := os.WriteFile(path, []byte(u.Circuit.Verilog()), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "wrote", path)
		}
	}

	// CSV write failures must not os.Exit past the deferred flush; the first
	// one is remembered and surfaces after the run.
	var csvMu sync.Mutex
	var csvErr error
	writeCSV := func(name, content string) {
		if csvDir == "" {
			return
		}
		csvMu.Lock()
		defer csvMu.Unlock()
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			if csvErr == nil {
				csvErr = err
			}
			return
		}
		path := filepath.Join(csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			if csvErr == nil {
				csvErr = err
			}
			return
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}

	// fig10, fig11 and the headline read one injection campaign, which
	// runs before the experiment jobs start (see below).
	var inj *harness.InjectionResult
	// Every perf sweep of the run (fig12, fig13, cpistack, memcpi, fig15,
	// fig16, smprof and the headline's three) and both Figure 14 power
	// estimates resolve their cells through one store, so each distinct
	// (workload, scheme, memory model) cell is launched once per run,
	// however many experiments share it.
	cells := harness.NewCellStore(nil)
	sweep := func(ctx context.Context, schemes []compiler.Scheme, mem string) (*harness.PerfResult, error) {
		return harness.RunPerfCtxOpts(ctx, pool, schemes, true, harness.Options{MemModel: mem, Cells: cells})
	}

	// Canonical order: this is both the -exp name space and the order the
	// output is printed in, however the jobs are scheduled.
	type experiment struct {
		name string
		run  func(ctx context.Context) (string, error)
	}
	experiments := []experiment{
		{"headline", func(ctx context.Context) (string, error) {
			// The headline is a flat-memory table whatever -mem-model says.
			rows, err := harness.HeadlineCtx(ctx, pool, inj.PooledSDC, harness.Options{Cells: cells})
			if err != nil {
				return "", err
			}
			return harness.RenderHeadline(rows), nil
		}},
		{"table1", func(context.Context) (string, error) { return harness.Table1(), nil }},
		{"table2", func(context.Context) (string, error) { return harness.Table2(), nil }},
		{"table3", func(context.Context) (string, error) { return harness.Table3(), nil }},
		{"table4", func(context.Context) (string, error) {
			rows := harness.Table4()
			writeCSV("table4.csv", harness.Table4CSV(rows))
			return harness.RenderTable4(rows), nil
		}},
		{"fig10", func(context.Context) (string, error) {
			writeCSV("fig10_fig11.csv", inj.CSV())
			if tl := inj.RenderThroughput(); tl != "" {
				fmt.Fprintf(os.Stderr, "experiments: %s\n", tl)
			}
			return inj.RenderFig10() + "\n" + inj.RenderConeStats(), nil
		}},
		{"fig11", func(context.Context) (string, error) {
			out := inj.RenderFig11()
			out += fmt.Sprintf("pooled detection coverage: SEC-DED %.2f%%, Mod-127 %.2f%% (paper: >98.8%% / >99.3%%)\n",
				100*inj.DetectionCoverage(codeByName("SEC-DED-DP")),
				100*inj.DetectionCoverage(codeByName("Mod-127")))
			return out, nil
		}},
		{"fig12", func(ctx context.Context) (string, error) {
			perf, err := sweep(ctx, harness.Fig12Schemes(), memModel)
			if err != nil {
				return "", err
			}
			out := perf.Render("Figure 12: slowdown over the un-duplicated program (Tesla P100-class SM model)")
			if chart {
				out += "\n" + perf.Chart("Figure 12 (chart)", 120)
			}
			writeCSV("fig12.csv", perf.CSV())
			return out, nil
		}},
		{"fig13", func(ctx context.Context) (string, error) {
			perf, err := sweep(ctx, harness.Fig12Schemes(), memModel)
			if err != nil {
				return "", err
			}
			mix := harness.RunCodeMix(perf)
			writeCSV("fig13.csv", mix.CSV())
			return mix.Render(), nil
		}},
		{"cpistack", func(ctx context.Context) (string, error) {
			perf, err := sweep(ctx, harness.Fig12Schemes(), memModel)
			if err != nil {
				return "", err
			}
			cs := harness.CPIStacks(perf)
			out := cs.Render("CPI stacks: where each scheme's cycles go (headline sweep)")
			out += "\n" + cs.RenderAttribution("Slowdown attribution vs unprotected baseline")
			if chart {
				out += "\n" + cs.Chart("CPI stacks (chart)")
			}
			writeCSV("cpistack.csv", cs.CSV())
			return out, nil
		}},
		{"memcpi", func(ctx context.Context) (string, error) {
			perf, err := sweep(ctx, harness.Fig12Schemes(), "sectored")
			if err != nil {
				return "", err
			}
			mc := harness.MemCPI(perf)
			out := mc.Render("Memory CPI: idle share by hierarchy level (Figure 12 sweep, sectored model)")
			if chart {
				cs := harness.CPIStacks(perf)
				out += "\n" + cs.Chart("CPI stacks with memory tiers (chart)")
			}
			writeCSV("memcpi.csv", mc.CSV())
			return out, nil
		}},
		{"fig14", func(ctx context.Context) (string, error) {
			// Like the headline, Figure 14 is flat-memory whatever
			// -mem-model says.
			pr, err := harness.RunPower(ctx, pool, harness.Options{Cells: cells})
			if err != nil {
				return "", err
			}
			writeCSV("fig14.csv", pr.CSV())
			return pr.Render() +
				fmt.Sprintf("worst power overhead: %.0f%% (paper: <=15%%)\n", 100*(pr.MaxRelPower()-1)), nil
		}},
		{"fig15", func(ctx context.Context) (string, error) {
			perf, err := sweep(ctx, harness.Fig15Schemes(), memModel)
			if err != nil {
				return "", err
			}
			writeCSV("fig15.csv", perf.CSV())
			return perf.Render("Figure 15: inter-thread duplication slowdown (fails on mm: CTA size; snap: shuffles)"), nil
		}},
		{"fig16", func(ctx context.Context) (string, error) {
			perf, err := sweep(ctx, harness.Fig16Schemes(), memModel)
			if err != nil {
				return "", err
			}
			writeCSV("fig16.csv", perf.CSV())
			return perf.Render("Figure 16: Swap-Predict with plausible future check-bit predictors"), nil
		}},
		{"smprof", func(ctx context.Context) (string, error) {
			// The profile reads the flat-memory Figure 12 sweep whatever
			// -mem-model says.
			perf, err := sweep(ctx, harness.Fig12Schemes(), "")
			if err != nil {
				return "", err
			}
			res := harness.SMProf(perf)
			writeCSV("smprof.csv", res.CSV())
			return res.Render("SM round-loop profile: rounds, idle-skip and partition balance"), nil
		}},
		{"verify", func(ctx context.Context) (string, error) {
			res, err := harness.RunVerifyCtx(ctx, pool, verify.Matrix())
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

	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	var selected []experiment
	known := map[string]bool{"all": true}
	needInj := false
	for _, e := range experiments {
		known[e.name] = true
		// "verify" replays the whole workload suite across 68 combos, and
		// "smprof" profiles the simulator rather than reproducing the paper;
		// both are opt-in only and not part of "all".
		if want[e.name] || (all && e.name != "verify" && e.name != "smprof") {
			selected = append(selected, e)
			needInj = needInj || e.name == "headline" || e.name == "fig10" || e.name == "fig11"
		}
	}
	for name := range want {
		if !known[name] {
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	// The campaign runs first, from this goroutine, so its engine.Map can
	// recruit every pool worker. Run inside an experiment job, it would
	// hold that job's pool token, and a job waiting for it would hold
	// another.
	start := time.Now()
	var injTime time.Duration
	var runErr error
	if needInj {
		inj, runErr = harness.RunInjectionCtx(ctx, pool, tuples, seed)
		injTime = time.Since(start)
	}

	// All selected experiments run concurrently as engine jobs; the harness
	// drivers they call fan out further on the same pool, which keeps the
	// global worker bound. Output and timings are buffered per experiment
	// and printed in canonical order.
	outputs := make([]string, len(selected))
	times := make([]time.Duration, len(selected))
	jobs := make([]engine.Job, len(selected))
	for i, e := range selected {
		i, e := i, e
		jobs[i] = engine.Job{Name: e.name, Run: func(ctx context.Context) error {
			start := time.Now()
			out, err := e.run(ctx)
			times[i] = time.Since(start)
			outputs[i] = out
			return err
		}}
	}
	if runErr == nil {
		runErr = pool.Run(ctx, jobs)
	}
	stopProgress()
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
	pr := pool.Tracker().Snapshot()
	fmt.Fprintf(os.Stderr, "experiments: total %.2fs; engine: %s\n",
		time.Since(start).Seconds(), pr.String())
	// The deferred flushObs writes metrics/trace after this return, so a
	// cancelled run (Ctrl-C, SIGTERM, -timeout) still leaves its partial
	// observations on disk.
	if runErr != nil && rec != nil {
		fmt.Fprintln(os.Stderr, "experiments: cancelled; writing partial metrics")
	}
	if runErr == nil {
		runErr = csvErr
	}
	return runErr
}

// runSubmit is the -submit client mode: experiments become job specs
// against a running swapserve, which runs (or serves from cache) each one
// and returns the payload. Only the service-backed experiments map; the
// local-only ones (static tables, fig13/fig14 post-processing) say so.
func runSubmit(base, tenant, exp string, tuples int, seed int64, memModel string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := func(schemes []compiler.Scheme) []string {
		out := make([]string, len(schemes))
		for i, s := range schemes {
			out[i] = harness.SchemeName(s)
		}
		return out
	}
	specFor := map[string]jobs.Spec{
		"headline": {Kind: jobs.KindHeadline, Tuples: tuples, Seed: seed},
		"fig10":    {Kind: jobs.KindCampaign, Tuples: tuples, Seed: seed},
		"fig11":    {Kind: jobs.KindCampaign, Tuples: tuples, Seed: seed},
		"fig12":    {Kind: jobs.KindPerf, Schemes: names(harness.Fig12Schemes()), MemModel: memModel},
		"cpistack": {Kind: jobs.KindCPIStack, Schemes: names(harness.Fig12Schemes()), MemModel: memModel},
		"memcpi":   {Kind: jobs.KindCPIStack, Schemes: names(harness.Fig12Schemes()), MemModel: "sectored"},
		"fig15":    {Kind: jobs.KindPerf, Schemes: names(harness.Fig15Schemes()), MemModel: memModel},
		"fig16":    {Kind: jobs.KindPerf, Schemes: names(harness.Fig16Schemes()), MemModel: memModel},
		"verify":   {Kind: jobs.KindVerify},
	}
	order := []string{"headline", "fig10", "fig11", "fig12", "cpistack", "memcpi", "fig15", "fig16", "verify"}

	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	if want["all"] {
		for _, name := range order {
			// Same opt-in rule as local runs: verify is not part of "all".
			want[name] = want[name] || name != "verify"
		}
		delete(want, "all")
	}
	for name := range want {
		if _, ok := specFor[name]; !ok {
			return fmt.Errorf("experiment %q cannot run via -submit (server-backed: %s)",
				name, strings.Join(order, ", "))
		}
	}

	c := &jobs.Client{Base: base}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	}
	// fig10 and fig11 share one campaign spec; submit each distinct spec
	// once and reuse the payload (the server would cache-hit anyway, but
	// this also skips the duplicate polling).
	payloads := map[string][]byte{}
	for _, name := range order {
		if !want[name] {
			continue
		}
		spec := specFor[name]
		spec.Tenant = tenant
		norm := spec
		if err := norm.Normalize(); err != nil {
			return err
		}
		key := norm.Key()
		raw, ok := payloads[key]
		if !ok {
			var err error
			raw, err = c.RunJob(ctx, spec, logf)
			if err != nil {
				return err
			}
			payloads[key] = raw
		}
		fmt.Printf("== %s ==\n%s\n", name, jobs.RenderPayload(raw))
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

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
