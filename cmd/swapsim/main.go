// Command swapsim runs one workload kernel under one or more protection
// schemes on the simulated SM and prints cycles, instruction mix, and
// (optionally) the outcome of an injected pipeline error under the
// SwapCodes register file.
//
// Usage:
//
//	swapsim -workload lavaMD -scheme swap-ecc
//	swapsim -workload mm -scheme baseline,sw-dup,swap-ecc -workers 4
//	swapsim -workload bfs -scheme swap-ecc -mem-model sectored
//	swapsim -workload bprop -scheme swap-ecc -fault 49 -lane 3 -bit 21
//	swapsim -workload mm -scheme sw-dup -fault 120 -lane 3 -bit 9
//	swapsim -workload mm -scheme sw-dup -fault 120 -lane -1 -bit -1 -seed 7
//	swapsim -file kernel.sasm -scheme swap-ecc -mem 65536
//	swapsim -workload mm -scheme sw-dup -serve :9090 -metrics run.json
//	swapsim -workload lavaMD -scheme swap-ecc -flight /tmp/black-box.jsonl
//	swapsim -submit localhost:9090 -scheme sw-dup,swap-ecc
//	swapsim -list
//
// With a comma-separated -scheme list the runs execute in parallel on an
// engine pool (-workers, default all cores) and are reported in list order;
// the simulator is deterministic, so the numbers match serial runs exactly.
// With -lane -1 or -bit -1 the faulted lane/bit are drawn from -seed. A
// launch that fails after the injected fault fired is reported as the run's
// outcome (output CRASHED), like a corrupted output.
// With -submit the -scheme sweep runs as a perf job on a swapserve (or is
// answered from its content-addressed cache) instead of simulating locally.
// With -flight each launch runs under the flight recorder (DESIGN.md §14):
// if a scheme fails to launch, or its output mismatches without a
// deliberately injected fault, the black-box bundle of scheduler decisions
// is written to the given path for replay. With -metrics, -trace,
// -metrics-interval or -serve each launch's recorder holds the whole launch
// (harness.LaunchRings), and the SM's metrics and timeline are derived from
// it once the launch ends (harness.ObserveLaunch).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/isa"
	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

type runOpts struct {
	name, file string
	memWords   int
	fault      int64
	lane, bit  int
	memModel   string
	disas      bool
	optimize   bool
	rec        *obs.Recorder
	flight     *flightSink
	log        *slog.Logger
}

// flightSink writes the first failing launch's flight-recorder bundle to the
// -flight path. One file per run: parallel scheme sweeps race to the first
// failure and later ones only log.
type flightSink struct {
	path string
	log  *slog.Logger
	once sync.Once
}

// dump persists the bundle if the recorder actually captured a failure.
func (s *flightSink) dump(fr *simprof.FlightRecorder) {
	if s == nil || fr == nil || !fr.Failed() {
		return
	}
	s.once.Do(func() {
		if err := os.WriteFile(s.path, fr.Bundle(), 0o644); err != nil {
			s.log.Error("flight bundle write failed",
				slog.String("path", s.path), slog.String("err", err.Error()))
			return
		}
		s.log.Info("flight bundle written", slog.String("path", s.path),
			slog.String("reason", fr.Meta().Reason))
	})
}

func main() {
	name := flag.String("workload", "lavaMD", "workload name (see -list)")
	file := flag.String("file", "", "run a kernel from a .sasm text file instead of a built-in workload")
	memWords := flag.Int("mem", 1<<16, "global memory words when running a .sasm file")
	schemeList := flag.String("scheme", "swap-ecc", "comma-separated protection schemes: "+strings.Join(harness.SchemeNames(), " "))
	workers := flag.Int("workers", 0, "engine worker count for multi-scheme runs (0 = all cores)")
	memModel := flag.String("mem-model", "", "SM memory timing model: off (flat latency, the default) or sectored (L1/MSHR/L2/DRAM hierarchy with memory CPI attribution)")
	seed := flag.Int64("seed", 1, "random seed for -lane -1 / -bit -1 fault-site selection")
	list := flag.Bool("list", false, "list workloads and exit")
	fault := flag.Int64("fault", -1, "dynamic warp-instruction index at which to inject a pipeline error")
	lane := flag.Int("lane", 0, "faulted lane (-1: draw from -seed)")
	bit := flag.Int("bit", 7, "faulted result bit (-1: draw from -seed)")
	disas := flag.Bool("disas", false, "print the transformed kernel")
	optimize := flag.Bool("O", false, "run dead-code elimination and the list scheduler after the protection pass")
	flight := flag.String("flight", "", "arm the flight recorder; on a failed or corrupted run, write the JSONL black-box bundle to this file")
	metricsOut := flag.String("metrics", "", "write run metrics to this file (.json, .csv, anything else: aligned table)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file, loadable in Perfetto / chrome://tracing")
	metricsInterval := flag.Duration("metrics-interval", 0, "print a progress line to stderr at this interval (e.g. 2s)")
	serve := flag.String("serve", "", "serve live observability on this address (GET /metrics Prometheus text, /runs JSON, /debug/pprof)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no limit); partial results are reported")
	submit := flag.String("submit", "", "submit a -scheme performance sweep to a running swapserve at this base URL instead of simulating locally")
	tenant := flag.String("tenant", "", "tenant fairness key for -submit (empty = default tenant)")
	traceParent := flag.String("traceparent", "", "W3C traceparent (or bare 32-hex trace ID) stamped on -submit jobs; empty mints one per submission")
	logLevel := flag.String("log-level", "info", "stderr diagnostics level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "stderr diagnostics format: json or text")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, level, nil)
	if err != nil {
		fail(err)
	}

	if *submit != "" {
		fail(submitPerf(log, *submit, *tenant, *traceParent, strings.Split(*schemeList, ",")))
		return
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-9s grid=%3d cta=%4d regs=%2d shared=%d\n",
				w.Name, w.Kernel.GridCTAs, w.Kernel.CTAThreads, w.Kernel.NumRegs, w.Kernel.SharedWords)
		}
		return
	}

	schemes, err := harness.ParseSchemes(strings.Split(*schemeList, ","))
	if err != nil {
		fail(err)
	}
	mem, err := sm.ParseMemModel(*memModel)
	fail(err)
	fail(checkFaultSite(*lane, *bit))
	opts := runOpts{name: *name, file: *file, memWords: *memWords,
		fault: *fault, lane: *lane, bit: *bit, memModel: mem,
		disas: *disas, optimize: *optimize, log: log}
	if *flight != "" {
		opts.flight = &flightSink{path: *flight, log: log}
	}
	if *fault >= 0 && (*lane < 0 || *bit < 0) {
		rng := rand.New(rand.NewSource(*seed))
		if *lane < 0 {
			opts.lane = rng.Intn(32)
		}
		if *bit < 0 {
			opts.bit = rng.Intn(32)
		}
		log.Info("fault site drawn", slog.Int64("seed", *seed),
			slog.Int("lane", opts.lane), slog.Int("bit", opts.bit))
	}

	// One recorder serves all schemes: each launch gets its own trace
	// process (sm:<kernel>, sm:<kernel>#2, ...) and the registry aggregates
	// across them.
	if *metricsOut != "" || *traceOut != "" || *metricsInterval > 0 || *serve != "" {
		opts.rec = obs.NewRecorder()
	}
	fail(run(schemes, opts, *workers, *seed, *timeout, *serve, *metricsInterval, *metricsOut, *traceOut))
}

// run owns the whole simulation lifecycle so its defers fire on every exit:
// the metrics/trace flush and the -serve shutdown happen on success, on
// cancellation (a signal, -timeout), on a failed scheme, and during a panic
// unwind — a crashed run still leaves its partial observations on disk.
func run(schemes []compiler.Scheme, opts runOpts, workers int, seed int64,
	timeout time.Duration, serve string, metricsInterval time.Duration,
	metricsOut, traceOut string) (err error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	pool := engine.New(workers)
	pool.SetObs(opts.rec)
	// The flush runs deferred — and exactly once — so partial observations
	// survive cancellation, failures, and panics.
	flusher := &obs.FileFlusher{Rec: opts.rec, MetricsPath: metricsOut, TracePath: traceOut,
		Logf: func(path string) { opts.log.Info("artifact written", slog.String("path", path)) }}
	defer func() {
		if ferr := flusher.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if serve != "" {
		srv, serr := obs.StartConfigured(obs.ServerConfig{
			Addr: serve, Registry: opts.rec.Registry(),
			Runs:   func() any { return pool.Tracker().Snapshot() },
			Logger: opts.log,
		})
		if serr != nil {
			return serr
		}
		opts.log.Info("serving observability", slog.String("url", srv.URL()))
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if serr := srv.Shutdown(sctx); serr != nil && err == nil {
				err = serr
			}
		}()
	}
	if len(schemes) > 1 {
		opts.log.Info("parallel sweep", slog.Int("workers", pool.Workers()),
			slog.Int64("seed", seed), slog.Int("schemes", len(schemes)))
	}
	stopProgress := obs.StartProgress(os.Stderr, metricsInterval, func() string {
		snap := pool.Tracker().Snapshot()
		return fmt.Sprintf("swapsim: %s; sm cycles=%d",
			snap.String(), opts.rec.Registry().SumCounters("sm.cycles"))
	})
	reports, err := engine.Map(ctx, pool, len(schemes),
		func(ctx context.Context, i int) (string, error) {
			return runScheme(ctx, schemes[i], opts)
		})
	stopProgress()
	for _, r := range reports {
		if r != "" {
			fmt.Print(r)
		}
	}
	// A stopped run still reports: the deferred flush leaves a coherent
	// partial trace (ObserveLaunch closes the tail window and the spans of
	// the warps still resident at the stop) and partial counters.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		opts.log.Warn("cancelled; reporting partial results")
	}
	return err
}

// runScheme compiles, runs, and verifies one scheme, returning the full
// report as a string so parallel runs never interleave output.
func runScheme(ctx context.Context, scheme compiler.Scheme, o runOpts) (string, error) {
	var w *workloads.Workload
	var base *isa.Kernel
	if o.file != "" {
		src, err := os.ReadFile(o.file)
		if err != nil {
			return "", err
		}
		base, err = compiler.Parse(string(src))
		if err != nil {
			return "", err
		}
	} else {
		var err error
		w, err = workloads.ByName(o.name)
		if err != nil {
			return "", err
		}
		base = w.Kernel
	}
	k, err := compiler.ApplyOpts(base, scheme, compiler.Opts{DCE: o.optimize, Schedule: o.optimize})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if o.disas {
		for pc, in := range k.Code {
			fmt.Fprintf(&b, "%4d: %v\n", pc, in)
		}
	}
	cfg := sm.DefaultConfig()
	cfg.MemModel = o.memModel
	if o.fault >= 0 {
		cfg.ECC = true
	}
	var g *sm.GPU
	if w != nil {
		g = w.NewGPU(cfg)
	} else {
		g = sm.NewGPU(cfg, o.memWords)
	}
	if o.fault >= 0 {
		g.Fault = &sm.FaultPlan{TargetDynInstr: o.fault, Lane: o.lane, BitMask: 1 << uint(o.bit)}
	}
	// One recorder per launch serves both -flight and the observation; the
	// observation needs rings that hold the whole launch.
	var fr *simprof.FlightRecorder
	if o.flight != nil || o.rec != nil {
		rings := 0
		if o.rec != nil {
			rings = harness.LaunchRings
		}
		fr = simprof.NewFlightRecorder(rings)
		if w != nil {
			fr.Annotate(w.Name, 0)
		}
		g.Flight = fr
	}
	st, err := g.LaunchContext(ctx, k)
	if st != nil && o.rec != nil {
		if oerr := harness.ObserveLaunch(o.rec, g, k, st); oerr != nil {
			o.log.Warn("SM timeline omitted", slog.String("err", oerr.Error()))
		}
	}
	if err != nil {
		o.flight.dump(fr)
		if st == nil && g.Fault != nil && g.Fault.Applied {
			// The injected fault crashed the kernel: that is the run's
			// outcome, not a tool failure.
			fmt.Fprintf(&b, "workload    %s under %v\n", k.Name, scheme)
			fmt.Fprintf(&b, "fault       applied=true\n")
			fmt.Fprintf(&b, "output      CRASHED: %v\n\n", err)
			return b.String(), nil
		}
		if st == nil {
			return "", err
		}
		// Stopped by the context mid-launch (LaunchContext returns stats
		// with an error only then): the partial stats are still coherent,
		// so report what ran before returning the error.
		fmt.Fprintf(&b, "workload    %s under %v  [PARTIAL: %v]\n", k.Name, scheme, err)
		fmt.Fprintf(&b, "cycles      %d (so far)\n", st.Cycles)
		fmt.Fprintf(&b, "warp instrs %d (IPC %.2f)\n", st.DynWarpInstrs, st.IPC())
		b.WriteString("\n")
		return b.String(), err
	}
	var verifyErr error
	if w != nil {
		verifyErr = w.Verify(g)
	}
	if verifyErr != nil && fr != nil && o.fault < 0 {
		// Corruption with no deliberate fault injected is a real failure:
		// stamp and persist the black box. (Injected-fault SDCs are the
		// experiment's expected outcome, not a bug worth a bundle.)
		fr.Fail(k.Name, k.Scheme, st.Cycles, cfg,
			"output verification failed: "+verifyErr.Error())
		o.flight.dump(fr)
	}

	fmt.Fprintf(&b, "workload    %s under %v\n", k.Name, scheme)
	fmt.Fprintf(&b, "cycles      %d\n", st.Cycles)
	fmt.Fprintf(&b, "warp instrs %d (IPC %.2f)\n", st.DynWarpInstrs, st.IPC())
	fmt.Fprintf(&b, "occupancy   %d resident warps (max)\n", st.MaxResidentWarps)
	fmt.Fprintf(&b, "stalls      deps=%d throttle=%d barrier=%d empty=%d (failed issue slots)\n",
		st.StallDeps, st.StallThrottle, st.StallBarrier, st.StallNoWarp)
	fmt.Fprintf(&b, "idle cycles %d of %d (deps=%d throttle=%d barrier=%d empty=%d)\n",
		st.StallCycles(), st.Cycles,
		st.StallCyclesDeps, st.StallCyclesThrottle, st.StallCyclesBarrier, st.StallCyclesNoWarp)
	if st.Mem != nil {
		fmt.Fprintf(&b, "mem stalls  %d (l1=%d l2=%d dram=%d mshr=%d); L1 %d/%d hit, L2 %d/%d hit, DRAM rows %d/%d hit\n",
			st.MemStallCycles(), st.StallCyclesMemL1, st.StallCyclesMemL2,
			st.StallCyclesMemDRAM, st.StallCyclesMemMSHR,
			st.Mem.L1Hits, st.Mem.L1Hits+st.Mem.L1Misses,
			st.Mem.L2Hits, st.Mem.L2Hits+st.Mem.L2Misses,
			st.Mem.RowHits, st.Mem.RowHits+st.Mem.RowMisses)
	}
	fmt.Fprintf(&b, "classes    ")
	for cl := isa.ClassFxP; cl <= isa.ClassSpecial; cl++ {
		if st.PerClass[cl] > 0 {
			fmt.Fprintf(&b, " %v=%d", cl, st.PerClass[cl])
		}
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "categories ")
	for cat := isa.CatNotEligible; cat <= isa.CatChecking; cat++ {
		if st.PerCat[cat] > 0 {
			fmt.Fprintf(&b, " %v=%d", cat, st.PerCat[cat])
		}
	}
	b.WriteString("\n")
	if o.fault >= 0 {
		fmt.Fprintf(&b, "fault       applied=%v\n", g.Fault.Applied)
		fmt.Fprintf(&b, "detection   pipeline DUEs=%d, software trap=%v\n", st.PipelineDUEs, st.Trapped)
	}
	switch {
	case verifyErr != nil:
		fmt.Fprintf(&b, "output      CORRUPTED: %v\n", verifyErr)
	case w != nil:
		fmt.Fprintf(&b, "output      verified correct\n")
	}
	b.WriteString("\n")
	return b.String(), nil
}

// submitPerf is the -submit client mode: the -scheme sweep runs as a perf
// job on a swapserve (or comes straight from its content-addressed cache).
// traceParent, when set, pins the submission's trace ID so the server-side
// execution correlates with whatever minted it.
func submitPerf(log *slog.Logger, base, tenant, traceParent string, schemes []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for i := range schemes {
		schemes[i] = strings.TrimSpace(schemes[i])
	}
	c := &jobs.Client{Base: base}
	if traceParent != "" {
		if id, ok := obs.ParseTraceparent(traceParent); ok {
			c.Trace = id
		} else if len(traceParent) == 32 {
			c.Trace = traceParent // bare trace ID, no traceparent framing
		} else {
			return fmt.Errorf("swapsim: bad -traceparent %q", traceParent)
		}
		log.Info("submitting under trace", slog.String("trace_id", c.Trace))
	}
	raw, err := c.RunJob(ctx, jobs.Spec{Kind: jobs.KindPerf, Tenant: tenant, Schemes: schemes},
		func(format string, args ...any) { log.Info(fmt.Sprintf(format, args...)) })
	if err != nil {
		return err
	}
	fmt.Println(jobs.RenderPayload(raw))
	return nil
}

// checkFaultSite rejects a fault lane or bit outside a 32-lane warp and a
// 32-bit register; -1 draws it from -seed.
func checkFaultSite(lane, bit int) error {
	if lane < -1 || lane > 31 {
		return fmt.Errorf("-lane %d: want a lane in 0..31, or -1 to draw one from -seed", lane)
	}
	if bit < -1 || bit > 31 {
		return fmt.Errorf("-bit %d: want a bit in 0..31, or -1 to draw one from -seed", bit)
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapsim:", err)
		os.Exit(1)
	}
}
