package main

import (
	"bufio"
	"os"
	"path/filepath"
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

// docHeadline parses the "Headline claims" table of EXPERIMENTS.md into
// claim → (Paper, Measured) cells.
func docHeadline(t *testing.T) map[string]headlineClaim {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]headlineClaim{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "## Headline claims":
			in = true
		case in && strings.HasPrefix(line, "## "):
			return rows
		case in && strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			if len(cells) != 4 {
				t.Fatalf("EXPERIMENTS.md headline row %q has %d cells, want 4", line, len(cells))
			}
			rows[strings.TrimSpace(cells[0])] = headlineClaim{strings.TrimSpace(cells[1]), strings.TrimSpace(cells[2])}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
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
