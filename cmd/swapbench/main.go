// Command swapbench measures the reproduction end to end and layer by
// layer, over four workloads:
//
//	fig12     the Figure 12/13 and CPI-stack sweep (`experiments -exp
//	          fig12,fig13,cpistack`): 15 kernels x {baseline + 4 schemes},
//	          flat memory, every launch verified
//	memcpi    the same sweep with the sectored memory hierarchy armed
//	          (`experiments -exp memcpi`)
//	campaign  the Figure 10/11 injection campaign (`experiments -exp
//	          fig10,fig11 -tuples 2000 -seed <op seed>`)
//	serve     an in-process job server over HTTP, fed by an open loop of
//	          batches in which two tenants submit cold campaigns, cold perf
//	          sweeps and cached resubmits; the op is one tenant's batch
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash cmd/swapbench/run.sh --workload fig12 --seed 1 --seconds 20 --trace 0
//	bash cmd/swapbench/run.sh                       # every workload, then the traced phase
//	bash cmd/swapbench/run.sh -compare a1.txt a2.txt -- b1.txt b2.txt
//
// With --trace 0 a run sets the workload up three times, measures ops for
// --seconds on the last set-up and prints the end-to-end metrics; with
// --trace 1 it runs the traced phase and
// prints the per-layer metrics. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before it
// carries the run's identity. Every op's output is checked against
// golden.json; the command exits 1 when any op failed. README.md describes
// the workloads, the metrics and how to compare two commits.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloadNames lists the workloads in the order the all-workloads mode
// runs them.
var workloadNames = []string{"fig12", "memcpi", "campaign", "serve"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the run measures
	trace    bool
	outDir   string // Chrome traces and job-server state
	nproc    int
}

// identity says what produced a result: the machine, the toolchain, the
// commit and the run's own settings and size.
type identity struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Modified   string  `json:"vcs_modified"`
	Ops        int     `json:"ops"`
	Jobs       int     `json:"jobs"`
	WallS      float64 `json:"wall_s"`
}

func newIdentity(cfg config) identity {
	id := identity{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Revision: "unknown", Modified: "unknown"}
	if cfg.trace {
		id.Trace = 1
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				id.Revision = s.Value
			case "vcs.modified":
				id.Modified = s.Value
			}
		}
	}
	return id
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig12, memcpi, campaign or serve (empty = all four, each in a child process, then the traced phase)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from (positive)")
	seconds := flag.Float64("seconds", 20, "how long a run measures")
	traceFlag := flag.Int("trace", 0, "0: measure the end-to-end metrics; 1: run the traced phase and measure the per-layer metrics")
	outDir := flag.String("out", ".bench_build/swapbench", "directory for Chrome traces and job-server state")
	compare := flag.Bool("compare", false, "compare result files by the bounds in ./BENCHMARK.json: swapbench -compare <set A files> -- <set B files>")
	writeGolden := flag.String("write-golden", "", "recompute the seed-1 digests and write them to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compare {
		fail(runCompare(os.Stdout, "BENCHMARK.json", flag.Args()))
		return
	}
	if *seed < 1 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fail(fmt.Errorf("need -seed >= 1, -seconds > 0 and -trace 0 or 1"))
	}
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, outDir: *outDir, nproc: runtime.NumCPU()}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fail(err)
	}
	g, err := loadGolden()
	if err != nil {
		fail(err)
	}
	switch {
	case *writeGolden != "":
		fail(writeGoldenFile(ctx, cfg, *writeGolden))
	case cfg.workload == "":
		fail(runAll(ctx, *seed, *seconds, cfg.outDir))
	default:
		r, err := runWorkload(ctx, cfg, g)
		if err != nil {
			fail(err)
		}
		if err := r.write(os.Stdout); err != nil {
			fail(err)
		}
		if r.failed > 0 || len(r.missing()) > 0 {
			os.Exit(1)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapbench:", err)
		os.Exit(1)
	}
}

// setups is how many times an untraced run sets its workload up. setup_s is
// their median, and the last one is measured. Nothing a set-up builds is
// kept for the next, so each pays the whole cost.
const setups = 3

// opSamples is what one measured window observed.
type opSamples struct {
	ops               []float64 // op latencies, s
	rssMB             []float64 // resident-set peak per op (serve: per batch interval)
	attempted, failed int
	// Serve only: latency per job class (s), the generator's lateness, and
	// the jobs of earlier batches unfinished when the last batch was due.
	jobs    map[string][]float64
	lateMS  []float64
	backlog int
}

// measurer is a workload after set-up.
type measurer interface {
	measure(ctx context.Context) (*opSamples, error)
	close() error
}

func setup(ctx context.Context, cfg config, g *golden) (measurer, error) {
	if cfg.workload == "serve" {
		return newServeBench(ctx, cfg, g)
	}
	return newLoopBench(ctx, cfg, g)
}

// measureE2E is an untraced run: the set-ups, then the window on the last.
func measureE2E(ctx context.Context, cfg config, g *golden) (*report, error) {
	var times []float64
	var m measurer
	for i := 0; i < setups; i++ {
		if m != nil {
			if err := m.close(); err != nil {
				return nil, err
			}
		}
		if err := settle(); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if m, err = setup(ctx, cfg, g); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "swapbench: %s: set up in %.2fs median of %d; measuring %.1fs\n",
		cfg.workload, median(times), setups, cfg.window.Seconds())
	f, err := m.measure(ctx)
	if cerr := m.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	r := newReport(e2eMetrics)
	r.attempted, r.failed = f.attempted, f.failed
	r.set("setup_s", median(times), len(times))
	r.set("op_s_p50", median(f.ops), len(f.ops))
	r.set("op_s_p75", quantile(f.ops, 0.75), len(f.ops))
	r.set("peak_rss_mb", median(f.rssMB), len(f.rssMB))
	if cfg.workload != "serve" {
		r.ident.Ops = f.attempted
		return r, nil
	}
	for _, c := range jobClasses {
		xs := f.jobs[c]
		r.notef("%s jobs: p50 %.1f ms, p75 %.1f ms, n=%d", c, 1e3*median(xs), 1e3*quantile(xs, 0.75), len(xs))
	}
	r.notef("generator lateness p75 %.3f ms; earlier jobs unfinished when the last batch was due: %d",
		quantile(f.lateMS, 0.75), f.backlog)
	r.ident.Jobs = f.attempted
	return r, nil
}

// runWorkload is one run: the traced phase, or the untraced measurement.
func runWorkload(ctx context.Context, cfg config, g *golden) (*report, error) {
	start := time.Now()
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	var r *report
	var err error
	if cfg.trace {
		fmt.Fprintf(os.Stderr, "swapbench: %s: traced phase, %v\n", cfg.workload, cfg.window)
		r, err = measureLayers(ctx, cfg, g)
	} else {
		r, err = measureE2E(ctx, cfg, g)
	}
	if err != nil {
		return nil, err
	}
	ident := newIdentity(cfg)
	ident.Ops, ident.Jobs = r.ident.Ops, r.ident.Jobs
	ident.WallS = time.Since(start).Seconds()
	r.ident = ident
	return r, nil
}

// runAll runs every workload's untraced run, then one traced phase, each in
// its own child process, passing their output through.
func runAll(ctx context.Context, seed int64, seconds float64, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	run := func(workload string, trace int) error {
		cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s (trace %d): %w", workload, trace, err)
		}
		return nil
	}
	var errs []string
	for _, w := range workloadNames {
		if err := run(w, 0); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if err := run(workloadNames[0], 1); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(errs, "; "))
	}
	return nil
}
