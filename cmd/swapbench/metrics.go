package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names, units and directions (the self-test holds the two in
// step); the bounds of the end-to-end metrics live only there.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are printed by every untraced run, for every workload. An "op"
// is one closed-loop operation (fig12, memcpi, campaign) or one tenant's
// batch, from its due time to its last job's FinishedAt (serve). setup_s is
// the median
// of the run's set-ups; peak_rss_mb is the median over ops of the
// resident-set peak during one op (serve: during one batch interval).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_s_p50", "s", "lower"},
	{"op_s_p75", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerKernels are the SM probe launches: FMA-bound, memory-bound, and the
// kernel that spends 68.8% of its rounds in idle-skip.
var layerKernels = []string{"lavaMD", "bfs", "needle"}

// memKernels are the kernels whose sectored-minus-flat launch cost is
// charged to the memory tier, per sector (kmeans is memcpi's longest row).
var memKernels = []string{"bfs", "kmeans", "needle"}

// probeSchemes are the schemes the SM probes launch.
var probeSchemes = []string{"baseline", "swap-ecc"}

// opWorkloads are the closed-loop workloads the traced phase rebuilds.
var opWorkloads = []string{"fig12", "memcpi", "campaign"}

// jobClasses are the serve mix's job classes.
var jobClasses = []string{"campaign", "perf", "cached"}

// layerMetrics are printed by every traced run. Each is named by the
// module it measures; README.md maps each one to the end-to-end metric and
// workload it should move.
func layerMetrics() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, s := range append([]string{"baseline"}, fig12SchemeNames()...) {
		add("compiler.apply_us."+s, "us", "lower")
	}
	add("sm.launch_ms", "ms", "lower")
	add("sm.newgpu_ms", "ms", "lower")
	add("sm.cycles", "count", "lower")
	add("sm.winstr", "count", "lower")
	for _, k := range layerKernels {
		for _, s := range probeSchemes {
			add("sm.ns_per_cycle."+k+"."+s, "ns", "lower")
			add("sm.ns_per_winstr."+k+"."+s, "ns", "lower")
		}
	}
	add("workloads.verify_ms", "ms", "lower")
	for _, k := range memKernels {
		add("memmodel.ns_per_sector."+k, "ns", "lower")
	}
	add("memmodel.access_ns_per_sector.coalesced", "ns", "lower")
	add("memmodel.access_ns_per_sector.scattered", "ns", "lower")
	add("memmodel.sectors", "count", "lower")
	add("memmodel.l1_hit_frac", "fraction", "higher")
	add("memmodel.mshr_full_events", "count", "lower")
	for _, w := range []string{"fig12", "memcpi"} {
		add("engine.busy_frac."+w, "fraction", "higher")
		add("engine.critical_path_frac."+w, "fraction", "lower")
	}
	add("trace.collect_ms", "ms", "lower")
	add("arith.units_ms", "ms", "lower")
	add("gates.cone_build_ms", "ms", "lower")
	add("faultsim.shards_ms", "ms", "lower")
	add("faultsim.shard_ms_p50", "ms", "lower")
	add("faultsim.injections", "count", "higher")
	add("faultsim.reeval_frac", "fraction", "lower")
	for _, w := range opWorkloads {
		add("harness.render_ms."+w, "ms", "lower")
	}
	add("harness.plan_ms", "ms", "lower")
	add("jobs.submit_ms_p50", "ms", "lower")
	add("jobs.queue_ms_p50", "ms", "lower")
	add("jobs.queue_ms_p75", "ms", "lower")
	for _, c := range jobClasses {
		add("jobs.exec_ms_p50."+c, "ms", "lower")
	}
	add("jobs.result_ms_p50", "ms", "lower")
	add("jobs.cache_hit_frac", "fraction", "higher")
	add("jobs.wal_append_us", "us", "lower")
	add("jobs.cas_put_us", "us", "lower")
	add("jobs.cas_get_us", "us", "lower")
	add("jobs.gen_late_ms_p75", "ms", "lower")
	add("jobs.backlog_end", "count", "lower")
	for _, k := range layerKernels {
		add("simprof.flight_overhead_frac."+k, "fraction", "lower")
	}
	for _, w := range opWorkloads {
		add("bench.trace_overhead_frac."+w, "fraction", "lower")
	}
	return defs
}

// report is one run's outcome: the metrics it measured (each with the
// sample count behind it), the operation tally, and the run's identity.
type report struct {
	defs      []metricDef
	values    map[string]float64
	counts    map[string]int
	attempted int
	failed    int
	ident     identity
	// notes are informational lines printed with the metric table
	// (serve's per-class latencies, for example); they are not metrics.
	notes []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, counts: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// missing lists the defined metrics the run did not produce.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the metric table, the identity line and, last, the result
// line the benchmark contract asks for.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "swapbench %s seed=%d trace=%d: %d attempted, %d failed\n",
		r.ident.Workload, r.ident.Seed, r.ident.Trace, r.attempted, r.failed)
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-44s %14s %-8s\n", d.name, "missing", d.unit)
			continue
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-8s n=%d\n", d.name, v, d.unit, r.counts[d.name])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	id, err := json.Marshal(map[string]identity{"swapbench": r.ident})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", id)
	res := resultLine{Correct: r.failed == 0 && len(r.missing()) == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		if v, ok := r.values[d.name]; ok {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile is the linearly interpolated q-quantile of xs (the "type 7"
// estimator); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samples accumulates repeated observations per metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// settle returns the heap's free memory to the OS and restarts the peak
// resident-set counter, so an op starts from the same state as every other
// op and peakRSSMB afterwards reads that op's own peak.
func settle() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// resetPeakRSS restarts the peak resident-set counter at the current
// resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak resident set (VmHWM) since the last reset, in
// MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
