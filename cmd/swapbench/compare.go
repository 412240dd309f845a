package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchDef is the part of BENCHMARK.json -compare judges by.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is one run read back from its output: identity and metrics.
type runResult struct {
	ident identity
	res   resultLine
}

// readRuns reads every run in the given files. A file holds the standard
// output of one or more runs; each run's identity line is followed by its
// result line.
func readRuns(files []string) ([]runResult, error) {
	var runs []runResult
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var pending *identity
		for sc.Scan() {
			line := sc.Bytes()
			if pending != nil {
				var res resultLine
				if err := json.Unmarshal(line, &res); err != nil {
					return nil, fmt.Errorf("%s: result line after identity: %w", path, err)
				}
				runs = append(runs, runResult{ident: *pending, res: res})
				pending = nil
				continue
			}
			if bytes.HasPrefix(line, []byte(`{"swapbench":`)) {
				var id map[string]identity
				if err := json.Unmarshal(line, &id); err != nil {
					return nil, fmt.Errorf("%s: identity line: %w", path, err)
				}
				v := id["swapbench"]
				pending = &v
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return runs, nil
}

// verdict judges B against A on one metric, by the rule in the
// choosing-metrics guide: B improved when it wins at least 9 of 10 pairs
// (ties count for neither) and the medians differ by more than A's
// interquartile range; B is unresolved when either side's spread exceeds
// the bound, unless every B run reads better than every A run; B regressed
// when its median is worse than A's by more than the bound; otherwise
// unchanged.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	better := func(x, y float64) bool {
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	winFrac := float64(wins) / float64(n)
	ma, mb := median(a), median(b)
	iqr := func(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }
	allBetter := true
	for _, y := range b {
		for _, x := range a {
			allBetter = allBetter && better(y, x)
		}
	}
	worse := (mb - ma) / math.Abs(ma)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case winFrac >= 0.9 && better(mb, ma) && math.Abs(mb-ma) > iqr(a):
		return "improved", winFrac
	case iqr(a)/math.Abs(ma) > bound || iqr(b)/math.Abs(mb) > bound:
		if allBetter {
			return "unchanged", winFrac
		}
		return "unresolved", winFrac
	case worse > bound:
		return "regressed", winFrac
	}
	return "unchanged", winFrac
}

// runCompare is the -compare mode: for each workload and end-to-end metric,
// each side's median and quartiles, B's pair win fraction and the verdict.
func runCompare(w io.Writer, benchFile string, args []string) error {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		return fmt.Errorf("usage: swapbench -compare <set A files> -- <set B files>")
	}
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	sides := [2][]runResult{}
	for i, files := range [][]string{args[:sep], args[sep+1:]} {
		if sides[i], err = readRuns(files); err != nil {
			return err
		}
	}
	values := func(runs []runResult, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.res.Metrics[metric]; ok && r.ident.Workload == workload && r.ident.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-9s %-12s %-36s %-36s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "B wins", "verdict")
	quart := func(xs []float64) string {
		return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	rows := 0
	for _, wl := range workloadNames {
		for _, m := range def.EndToEnd {
			a, b := values(sides[0], wl, m.Name), values(sides[1], wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, wins := verdict(a, b, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-9s %-12s %-36s %-36s %+7.1f%% %5.0f%%  %s (bound %.0f%%)\n",
				wl, m.Name, quart(a), quart(b), 100*(median(b)/median(a)-1), 100*wins, v, 100*m.Bound)
			rows++
		}
	}
	if rows == 0 {
		return fmt.Errorf("no workload has untraced runs on both sides")
	}
	return nil
}
