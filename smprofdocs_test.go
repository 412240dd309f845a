package swapcodes

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSMProfDocsMatchGolden holds EXPERIMENTS.md's round-loop profile
// section to the pinned -exp smprof table
// (internal/harness/testdata/smprof.golden, which TestRunSMProf compares
// with the code): every row of the section's excerpt must be a line of the
// pinned table, and the skip shares and the imbalance range its prose
// quotes must be the ones the pinned rows give.
func TestSMProfDocsMatchGolden(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("internal", "harness", "testdata", "smprof.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	type row struct {
		workload, scheme string
		cycles, skipped  int64
	}
	var rows []row
	var imbal []string // one "d.dd" each, so they order as numbers do
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")[2:] {
		pinned[line] = true
		f := strings.Fields(line)
		if len(f) != 8 {
			t.Fatalf("smprof.golden row %q has %d fields, want 8", line, len(f))
		}
		cycles, err1 := strconv.ParseInt(f[2], 10, 64)
		skipped, err2 := strconv.ParseInt(f[5], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("smprof.golden row %q: cycles %v, skipped %v", line, err1, err2)
		}
		rows = append(rows, row{f[0], f[1], cycles, skipped})
		imbal = append(imbal, f[7])
	}

	section := docSection(t, "## Profiling the SM round loop (`-exp smprof`)")
	excerpt := 0
	inRows := false
	for _, line := range section {
		switch {
		case strings.HasPrefix(line, "program "):
			inRows = true
		case !inRows:
		case line == "..." || line == "```":
			inRows = false
		default:
			excerpt++
			if !pinned[line] {
				t.Errorf("EXPERIMENTS.md smprof row %q is not a row of smprof.golden", line)
			}
		}
	}
	if excerpt == 0 {
		t.Error("EXPERIMENTS.md's smprof section has no excerpt rows")
	}

	// skip is the share of simulated cycles the idle-skip jumped over, in
	// the table's own format, over the rows keep accepts.
	skip := func(keep func(row) bool) string {
		var cycles, skipped int64
		for _, r := range rows {
			if keep(r) {
				cycles += r.cycles
				skipped += r.skipped
			}
		}
		return fmt.Sprintf("%.1f%%", 100*float64(skipped)/float64(cycles))
	}
	// span is the range of per-row skip shares over the rows keep accepts.
	span := func(keep func(row) bool) string {
		lo, hi := 101.0, -1.0
		for _, r := range rows {
			if keep(r) {
				v := 100 * float64(r.skipped) / float64(r.cycles)
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		return fmt.Sprintf("%.1f–%.1f%%", lo, hi)
	}
	scheme := func(s string) func(row) bool { return func(r row) bool { return r.scheme == s } }
	protected := map[string]bool{"heart": true, "kmeans": true, "bprop": true}
	prose := strings.Join(strings.Fields(strings.Join(section, " ")), " ")
	for _, want := range []string{
		fmt.Sprintf("needle skips %s of its baseline cycles",
			skip(func(r row) bool { return r.workload == "needle" && r.scheme == "baseline" })),
		fmt.Sprintf("Across all %d launches the skips cover %s of the simulated cycles: %s under the baseline and %s under Swap-ECC",
			len(rows), skip(func(row) bool { return true }), skip(scheme("baseline")), skip(scheme("swap-ecc"))),
		fmt.Sprintf("lavaMD under every scheme (%s)", span(func(r row) bool { return r.workload == "lavaMD" })),
		fmt.Sprintf("heart, kmeans and bprop once protected (%s under SW-Dup and Swap-ECC)",
			span(func(r row) bool { return protected[r.workload] && (r.scheme == "sw-dup" || r.scheme == "swap-ecc") })),
		fmt.Sprintf("keeps it between %s and %s everywhere", slices.Min(imbal), slices.Max(imbal)),
	} {
		if !strings.Contains(prose, want) {
			t.Errorf("EXPERIMENTS.md's smprof prose does not say %q, which smprof.golden gives", want)
		}
	}
}

// docSection returns the lines of the EXPERIMENTS.md section under heading,
// up to the next "## " heading.
func docSection(t *testing.T, heading string) []string {
	t.Helper()
	f, err := os.Open("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == heading
			continue
		}
		if in {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	return lines
}
