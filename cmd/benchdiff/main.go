// Command benchdiff records and compares the repo's benchmark trajectory.
//
// Usage:
//
//	benchdiff -run -label PR4                 # run the tier-1 benchmark set, write BENCH_PR4.json
//	benchdiff -compare BENCH_PR4.json         # compare against the latest prior BENCH_*.json
//	benchdiff -run -label PR4 -compare BENCH_PR4.json -informational
//	benchdiff -compare BENCH_PR9.json -only BenchmarkSMObsDisabled -threshold 5
//
// Each PR records its benchmark numbers in a schema-versioned BENCH_<label>.json
// at the repo root; comparing a new record against the latest prior record
// turns the checked-in files into a performance trajectory: any >threshold
// regression of ns/op fails the gate (or merely warns with -informational,
// the mode CI uses on pull requests, where runner noise exceeds the
// threshold routinely).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SchemaVersion identifies the BENCH_*.json layout; bump on breaking change.
const SchemaVersion = 1

// File is the trajectory record: one benchmark run of the tier-1 set.
type File struct {
	SchemaVersion int     `json:"schema_version"`
	Label         string  `json:"label"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CreatedAt     string  `json:"created_at"`
	Benchmarks    []Bench `json:"benchmarks"`
}

// Bench is one benchmark result (Go's -bench output, parsed).
type Bench struct {
	Name       string             `json:"name"` // trimmed of the -N GOMAXPROCS suffix
	Pkg        string             `json:"pkg"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"` // custom b.ReportMetric units
}

// suite is the tier-1 benchmark set the trajectory tracks: the engine and
// campaign throughput benches at the root, the plain and observed launches,
// the CPI-stack accounting bench, and the job-service telemetry overhead
// pair.
var suite = []struct{ pkg, pattern string }{
	{".", "BenchmarkEngineScaling"},
	{".", "BenchmarkCampaignEvaluator"},
	{"./internal/sm", "BenchmarkSMObsDisabled|BenchmarkSMObserved"},
	{"./internal/sm", "BenchmarkSMProfArmed|BenchmarkSMFlightArmed"},
	{"./internal/sm", "BenchmarkSMCPIStack"},
	{"./internal/sm", "BenchmarkSMMemModelOff|BenchmarkSMMemModelArmed"},
	{"./internal/jobs", "BenchmarkServiceTelemetry"},
}

func main() {
	doRun := flag.Bool("run", false, "run the tier-1 benchmark set and write the record")
	label := flag.String("label", "", "record label; the record is written to <dir>/BENCH_<label>.json")
	dir := flag.String("dir", ".", "directory holding BENCH_*.json records (the repo root)")
	compare := flag.String("compare", "", "compare this record against the latest prior BENCH_*.json in -dir")
	threshold := flag.Float64("threshold", 15, "regression threshold in percent of ns/op")
	only := flag.String("only", "", "restrict -compare to benchmarks matching this regexp")
	informational := flag.Bool("informational", false, "report regressions but exit 0 (PR mode: runner noise)")
	benchtime := flag.String("benchtime", "", "passed to go test -benchtime (default: go's 1s)")
	count := flag.Int("count", 1, "passed to go test -count; >1 keeps the fastest run per benchmark")
	flag.Parse()

	if !*doRun && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: nothing to do (want -run and/or -compare); see -h")
		os.Exit(2)
	}
	if *doRun {
		if *label == "" {
			fail(fmt.Errorf("-run needs -label (the BENCH_<label>.json name)"))
		}
		f, err := runSuite(*label, *benchtime, *count)
		fail(err)
		fail(os.MkdirAll(*dir, 0o755))
		path := filepath.Join(*dir, "BENCH_"+*label+".json")
		fail(writeFile(path, f))
		fmt.Fprintln(os.Stderr, "benchdiff: wrote", path)
		if *compare == "" {
			*compare = path
		}
	}
	if *compare != "" {
		fail(runCompare(os.Stdout, *compare, *dir, *only, *threshold, *informational))
	}
}

// runCompare loads the record at curPath and compares it against the latest
// prior record in dir. Two situations are outcomes rather than errors: a
// missing curPath (first run on a branch with no record yet — there is
// nothing to gate) and an empty dir (this record is the first of the
// trajectory). Both say so on stderr and return nil so CI's first run
// passes.
func runCompare(w *os.File, curPath, dir, only string, threshold float64, informational bool) error {
	cur, err := readFile(curPath)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "benchdiff: no record %s (first run?); nothing to compare\n", curPath)
		return nil
	}
	if err != nil {
		return err
	}
	prev, err := latestPrior(dir, curPath)
	if err != nil {
		return err
	}
	if prev == nil {
		fmt.Fprintf(os.Stderr, "benchdiff: no prior BENCH_*.json in %s; nothing to compare\n", dir)
		return nil
	}
	if only != "" {
		re, err := regexp.Compile(only)
		if err != nil {
			return fmt.Errorf("-only: %w", err)
		}
		prev, cur = filterBenches(prev, re), filterBenches(cur, re)
		if len(cur.Benchmarks) == 0 {
			return fmt.Errorf("-only %q matched no benchmarks in %s", only, curPath)
		}
	}
	report, regressions := Compare(prev, cur, threshold)
	fmt.Fprint(w, report)
	if regressions > 0 && !informational {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%", regressions, threshold)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) over %.0f%% (informational)\n", regressions, threshold)
	}
	return nil
}

// runSuite executes the tier-1 set via go test -bench and parses the output.
// With -count > 1 the fastest ns/op per benchmark is kept (the usual
// noise-robust choice for a regression gate).
func runSuite(label, benchtime string, count int) (*File, error) {
	f := &File{
		SchemaVersion: SchemaVersion,
		Label:         label,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
	}
	best := map[string]Bench{}
	for _, s := range suite {
		args := []string{"test", "-run", "^$", "-bench", s.pattern}
		if benchtime != "" {
			args = append(args, "-benchtime", benchtime)
		}
		if count > 1 {
			args = append(args, "-count", strconv.Itoa(count))
		}
		args = append(args, s.pkg)
		cmd := exec.Command("go", args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		fmt.Fprintf(os.Stderr, "benchdiff: go %s\n", strings.Join(args, " "))
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go test -bench %s %s: %w", s.pattern, s.pkg, err)
		}
		benches, err := ParseBenchOutput(out.String(), s.pkg)
		if err != nil {
			return nil, err
		}
		if len(benches) == 0 {
			return nil, fmt.Errorf("pattern %q matched no benchmarks in %s", s.pattern, s.pkg)
		}
		for _, b := range benches {
			if old, ok := best[b.Pkg+"/"+b.Name]; !ok || b.NsPerOp < old.NsPerOp {
				best[b.Pkg+"/"+b.Name] = b
			}
		}
	}
	for _, b := range best {
		f.Benchmarks = append(f.Benchmarks, b)
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		if f.Benchmarks[i].Pkg != f.Benchmarks[j].Pkg {
			return f.Benchmarks[i].Pkg < f.Benchmarks[j].Pkg
		}
		return f.Benchmarks[i].Name < f.Benchmarks[j].Name
	})
	return f, nil
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// ParseBenchOutput parses go test -bench text into Bench records. Each
// result line reads "BenchmarkName-N  iters  v unit  v unit ..."; ns/op,
// B/op, and allocs/op map onto struct fields, any other unit (custom
// b.ReportMetric) lands in Metrics.
func ParseBenchOutput(out, pkg string) ([]Bench, error) {
	var benches []Bench
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		// Trim the GOMAXPROCS suffix (-8) so records taken on machines with
		// different core counts compare by name.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q", sc.Text())
		}
		b := Bench{Name: name, Pkg: pkg, Iterations: iters}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("odd value/unit fields in %q", sc.Text())
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		benches = append(benches, b)
	}
	return benches, sc.Err()
}

// filterBenches returns a shallow copy of f holding only the benchmarks
// whose name matches re. Records on disk stay complete; the filter exists
// so a targeted gate (-only 'BenchmarkSMObsDisabled' -threshold 5) can
// enforce a tighter budget on one benchmark than the suite-wide noise
// threshold allows.
func filterBenches(f *File, re *regexp.Regexp) *File {
	out := *f
	out.Benchmarks = nil
	for _, b := range f.Benchmarks {
		if re.MatchString(b.Name) {
			out.Benchmarks = append(out.Benchmarks, b)
		}
	}
	return &out
}

// Compare renders a prior-vs-current table and counts ns/op regressions
// beyond threshold percent. Benchmarks present on only one side are
// reported but never count as regressions.
func Compare(prev, cur *File, threshold float64) (string, int) {
	var b strings.Builder
	fmt.Fprintf(&b, "benchdiff: %s -> %s (threshold %.0f%%)\n", prev.Label, cur.Label, threshold)
	fmt.Fprintf(&b, "%-44s %14s %14s %8s\n", "benchmark", prev.Label+" ns/op", cur.Label+" ns/op", "delta")
	prevBy := map[string]Bench{}
	for _, p := range prev.Benchmarks {
		prevBy[p.Pkg+"/"+p.Name] = p
	}
	regressions := 0
	seen := map[string]bool{}
	for _, c := range cur.Benchmarks {
		key := c.Pkg + "/" + c.Name
		seen[key] = true
		p, ok := prevBy[key]
		if !ok {
			fmt.Fprintf(&b, "%-44s %14s %14.0f %8s\n", c.Name, "-", c.NsPerOp, "new")
			continue
		}
		delta := 0.0
		if p.NsPerOp > 0 {
			delta = 100 * (c.NsPerOp - p.NsPerOp) / p.NsPerOp
		}
		mark := ""
		if delta > threshold {
			mark = "  REGRESSED"
			regressions++
		}
		fmt.Fprintf(&b, "%-44s %14.0f %14.0f %+7.1f%%%s\n", c.Name, p.NsPerOp, c.NsPerOp, delta, mark)
	}
	for _, p := range prev.Benchmarks {
		if !seen[p.Pkg+"/"+p.Name] {
			fmt.Fprintf(&b, "%-44s %14.0f %14s %8s\n", p.Name, p.NsPerOp, "-", "gone")
		}
	}
	return b.String(), regressions
}

// latestPrior finds the most recent BENCH_*.json in dir other than cur.
// "Latest" orders by the trailing integer of the label when both have one
// (PR10 after PR9), then by label string.
func latestPrior(dir, cur string) (*File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	curAbs, _ := filepath.Abs(cur)
	var files []*File
	for _, p := range paths {
		if abs, _ := filepath.Abs(p); abs == curAbs {
			continue
		}
		f, err := readFile(p)
		if err != nil {
			// A truncated, empty, or foreign-schema record must not wedge
			// every future comparison; warn and fall back to older records.
			fmt.Fprintf(os.Stderr, "benchdiff: skipping unreadable prior %s: %v\n", p, err)
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	sort.Slice(files, func(i, j int) bool {
		a, b := labelOrd(files[i].Label), labelOrd(files[j].Label)
		if a != b {
			return a < b
		}
		return files[i].Label < files[j].Label
	})
	return files[len(files)-1], nil
}

var trailingInt = regexp.MustCompile(`(\d+)$`)

func labelOrd(label string) int {
	if m := trailingInt.FindString(label); m != "" {
		n, _ := strconv.Atoi(m)
		return n
	}
	return -1
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this benchdiff reads %d", path, f.SchemaVersion, SchemaVersion)
	}
	return &f, nil
}

func writeFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
