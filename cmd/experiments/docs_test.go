package main

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// headlineClaim is one row of the headline table: the claim, the paper's
// number and the measured one.
type headlineClaim struct{ paper, measured string }

// pinnedHeadline parses the headline table out of the pinned -exp all
// output: one "%-34s %-14s %s" line per claim under the column header, up
// to the blank line that ends the experiment.
func pinnedHeadline(t *testing.T) (order []string, rows map[string]headlineClaim) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[1], "claim ") {
		t.Fatal("all.golden does not open with the headline table")
	}
	rows = map[string]headlineClaim{}
	for _, line := range lines[2:] {
		if line == "" {
			break
		}
		if len(line) < 51 {
			t.Fatalf("short headline line %q", line)
		}
		claim := strings.TrimSpace(line[:34])
		rows[claim] = headlineClaim{strings.TrimSpace(line[35:49]), strings.TrimSpace(line[50:])}
		order = append(order, claim)
	}
	return order, rows
}

// docTable returns the first markdown table under the EXPERIMENTS.md
// heading, one slice of trimmed cells per row, its header row first and
// the |---| separator left out.
func docTable(t *testing.T, heading string) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][]string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == heading:
			in = true
		case in && strings.HasPrefix(line, "|---"):
		case in && strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells)
		case in && (len(rows) > 0 || strings.HasPrefix(line, "## ")):
			in = false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("EXPERIMENTS.md has no table under %q", heading)
	}
	return rows
}

// docHeadline parses the "Headline claims" table of EXPERIMENTS.md into
// claim → (Paper, Measured) cells.
func docHeadline(t *testing.T) map[string]headlineClaim {
	t.Helper()
	rows := map[string]headlineClaim{}
	for _, cells := range docTable(t, "## Headline claims") {
		if len(cells) != 4 {
			t.Fatalf("EXPERIMENTS.md headline row %q has %d cells, want 4", cells, len(cells))
		}
		rows[cells[0]] = headlineClaim{cells[1], cells[2]}
	}
	return rows
}

// TestHeadlineDocsMatchPinnedOutput fails when EXPERIMENTS.md's headline
// table drifts from the numbers the code produces: every claim of
// `experiments -exp headline` must have a row there, with the same Paper
// and Measured cells as the pinned output in testdata/all.golden. Rows for
// claims the headline does not compute are not checked.
func TestHeadlineDocsMatchPinnedOutput(t *testing.T) {
	order, pinned := pinnedHeadline(t)
	if len(order) == 0 {
		t.Fatal("no headline claims in all.golden")
	}
	doc := docHeadline(t)
	for _, claim := range order {
		got, ok := doc[claim]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md has no headline row %q", claim)
		case got != pinned[claim]:
			t.Errorf("EXPERIMENTS.md %q: paper %q, measured %q; the pinned output says %q, %q",
				claim, got.paper, got.measured, pinned[claim].paper, pinned[claim].measured)
		}
	}
}

var (
	// fig10Row is one unit of Figure 10: three "frac% [lo, hi]" buckets.
	fig10Row = regexp.MustCompile(`^(\S+)\s+([\d.]+%) \[[^\]]*\]\s+([\d.]+%) \[[^\]]*\]\s+([\d.]+%) \[[^\]]*\]$`)
	// fig11Cell is one "frac%(hi)" cell of Figure 11.
	fig11Cell = regexp.MustCompile(`([\d.]+%)\(\s*[\d.]+\)`)
)

// pinnedInjection parses the pinned -exp all output for Figure 10's rows
// (unit → its 1-bit, 2–3-bit and ≥4-bit fractions, in unit order) and
// Figure 11's ALL row (code → pooled SDC risk, in code order).
func pinnedInjection(t *testing.T) (units []string, fig10 map[string][]string, codes []string, fig11 map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	at := func(prefix string) int {
		for i, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return i
			}
		}
		t.Fatalf("all.golden has no line starting %q", prefix)
		return -1
	}
	fig10 = map[string][]string{}
	for _, l := range lines[at("Figure 10:")+2:] {
		if l == "" {
			break
		}
		m := fig10Row.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("unparsable Figure 10 row %q", l)
		}
		units = append(units, m[1])
		fig10[m[1]] = m[2:]
	}
	head := at("Figure 11:") + 1
	codes = strings.Fields(lines[head])[1:]
	var all []string
	for _, l := range lines[head:] {
		if strings.HasPrefix(l, "ALL ") {
			for _, m := range fig11Cell.FindAllStringSubmatch(l, -1) {
				all = append(all, m[1])
			}
			break
		}
	}
	if len(units) == 0 || len(all) != len(codes) {
		t.Fatalf("all.golden: %d Figure 10 rows, %d pooled Figure 11 cells for %d codes", len(units), len(all), len(codes))
	}
	fig11 = map[string]string{}
	for i, c := range codes {
		fig11[c] = all[i]
	}
	return units, fig10, codes, fig11
}

// TestFigure10And11DocsMatchPinnedOutput fails when EXPERIMENTS.md's
// Figure 10 table or its pooled Figure 11 row drifts from the pinned
// output in testdata/all.golden: each table must hold exactly the pinned
// units (codes) with the same rounded percentages.
func TestFigure10And11DocsMatchPinnedOutput(t *testing.T) {
	units, fig10, codes, fig11 := pinnedInjection(t)

	doc10 := docTable(t, "## Figure 10 — error severity patterns")[1:]
	if len(doc10) != len(units) {
		t.Errorf("EXPERIMENTS.md Figure 10 has %d rows; the pinned output has %d units", len(doc10), len(units))
	}
	for _, row := range doc10 {
		want, ok := fig10[row[0]]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md Figure 10 row %q names no pinned unit", row[0])
		case !slices.Equal(row[1:], want):
			t.Errorf("EXPERIMENTS.md Figure 10 %s: %q; the pinned output says %q", row[0], row[1:], want)
		}
	}

	doc11 := docTable(t, "## Figure 11 — SDC risk per register-file code")
	if len(doc11) != 2 || len(doc11[0]) != len(doc11[1]) {
		t.Fatalf("EXPERIMENTS.md Figure 11 table is not one header and one pooled row: %q", doc11)
	}
	header, pooled := doc11[0][1:], doc11[1][1:]
	if !slices.Equal(header, codes) {
		t.Errorf("EXPERIMENTS.md Figure 11 codes %q; the pinned output has %q", header, codes)
	}
	for i, code := range header {
		if want, ok := fig11[code]; ok && pooled[i] != want {
			t.Errorf("EXPERIMENTS.md Figure 11 pooled %s: %s; the pinned output says %s", code, pooled[i], want)
		}
	}
}
