package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"

	"swapcodes/internal/obs"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkDefinition holds BENCHMARK.json and the metrics this command
// emits in step, within the caps the benchmark format allows.
func TestBenchmarkDefinition(t *testing.T) {
	b := readBenchmark(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", wls, workloadNames)
	}
	seen := map[string]bool{}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if !nameRE.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
			if m.unit == "" || (m.better != "lower" && m.better != "higher") {
				t.Errorf("%s: %s: unit %q, better %q", kind, m.name, m.unit, m.better)
			}
			if i < len(want) && m != want[i] {
				t.Errorf("%s: BENCHMARK.json has %+v, command emits %+v", kind, m, want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, e2eMetrics)
	check("per_layer", layer, layerMetrics())
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", b.RunSeconds)
	}
	if !slices.Equal(b.Paths, []string{"cmd/swapbench"}) {
		t.Errorf("paths %v", b.Paths)
	}
}

// shortConfig has a window short enough that a run measures one op (serve:
// one batch) and a traced phase runs one round.
func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, window: time.Nanosecond, trace: trace,
		outDir: t.TempDir(), nproc: runtime.NumCPU()}
}

func checkReport(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	if r.failed != 0 || r.attempted == 0 {
		t.Errorf("%d of %d ops failed", r.failed, r.attempted)
	}
	if m := r.missing(); len(m) > 0 {
		t.Errorf("metrics not emitted: %v", m)
	}
	for _, d := range defs {
		if v, ok := r.values[d.name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			t.Errorf("%s = %v", d.name, v)
		}
	}
}

// TestWorkloadsShort runs every workload untraced: every op must match its
// golden digest and every end-to-end metric must be emitted.
func TestWorkloadsShort(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			r, err := runWorkload(context.Background(), shortConfig(t, w, false), g)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, r, e2eMetrics)
			for _, d := range e2eMetrics {
				if v := r.values[d.name]; v <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// TestTracedPhaseShort runs one round of the traced phase: each rebuilt op
// must reproduce its untraced digest (and the golden one), every per-layer
// metric must be emitted, and the Chrome trace must be well formed.
func TestTracedPhaseShort(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig(t, "fig12", true)
	r, err := runWorkload(context.Background(), cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r, layerMetrics())
	raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-fig12-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(raw); err != nil {
		t.Error(err)
	}
}

func TestServeSchedule(t *testing.T) {
	if n := serveBatches(20 * time.Second); n != 4 {
		t.Errorf("a 20-s window holds %d batches, want 4", n)
	}
	_, short := serveSchedule(7, 2)
	pool, long := serveSchedule(7, 6)
	if len(short) != 20 || len(long) != 60 {
		t.Fatalf("schedules of %d and %d jobs, want 20 and 60", len(short), len(long))
	}
	for i := range short {
		if short[i].due != long[i].due || short[i].spec.Key() != long[i].spec.Key() ||
			short[i].spec.Tenant != long[i].spec.Tenant {
			t.Fatalf("job %d differs between schedule lengths", i)
		}
	}
	keys := map[string]bool{}
	for _, s := range pool {
		keys[s.Key()] = true
	}
	counts := map[string]int{}
	for i, j := range long {
		counts[j.class+"/"+j.spec.Tenant]++
		if j.batch != i/10 || j.due != time.Duration(i/10)*serveInterval {
			t.Errorf("job %d due at %v", i, j.due)
		}
		if j.class == "perf" && len(j.spec.Schemes) != servePerfSchemes {
			t.Errorf("perf job %d runs %d schemes", i, len(j.spec.Schemes))
		}
		if j.class != "cached" {
			if keys[j.spec.Key()] {
				t.Errorf("cold job %d repeats spec %s", i, j.spec.Key()[:8])
			}
			keys[j.spec.Key()] = true
		}
	}
	want := map[string]int{"campaign/tenant-a": 12, "perf/tenant-a": 12, "cached/tenant-a": 6,
		"campaign/tenant-b": 12, "perf/tenant-b": 6, "cached/tenant-b": 12}
	if !maps.Equal(counts, want) {
		t.Errorf("mix over six batches %v, want %v", counts, want)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01}
	shift := func(f float64) []float64 {
		var out []float64
		for _, x := range a {
			out = append(out, x*f)
		}
		return out
	}
	wide := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{a, "unchanged"},
		{shift(1.05), "unchanged"},
		{shift(1.2), "regressed"},
		{shift(0.8), "improved"},
		{wide, "unresolved"},
	} {
		if got, _ := verdict(a, c.b, true, 0.1); got != c.want {
			t.Errorf("verdict vs %v: %s, want %s", c.b, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.75); q != 4 {
		t.Errorf("p75 %v", q)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}
