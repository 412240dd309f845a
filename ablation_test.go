package swapcodes

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/sm"
)

// TestAblationDocsMatchCode recomputes the Section VI and ablation rows of
// EXPERIMENTS.md with the helpers their benchmarks report from, and fails
// when a row stops carrying the numbers the code produces. These are the
// only runs of a few non-default configurations (BypassSaving, a 2^24-word
// register file, DisableMoveProp, compiler.Schedule), which the figure pins
// never reach.
func TestAblationDocsMatchCode(t *testing.T) {
	if testing.Short() {
		t.Skip("about 120 launches")
	}
	ablation := func(name string, s compiler.Scheme, opts compiler.Opts, tweak func(*sm.Config)) float64 {
		t.Helper()
		v, err := ablationRun(name, s, opts, tweak)
		if err != nil {
			t.Fatalf("%s/%v: %v", name, s, err)
		}
		return v
	}
	sched := func(scheduled bool) float64 {
		t.Helper()
		v, err := schedulerAblation(scheduled)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	swapECC, hwSig, nand2, err := sectionVI()
	if err != nil {
		t.Fatal(err)
	}
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	arrow := func(a, b float64) string { return pct(a) + " → " + pct(b) }
	rows := []struct{ key, want string }{
		{"HW-Sig-SRIV", pct(hwSig) + " vs Swap-ECC " + pct(swapECC)},
		{"SEC-DED and addition/subtraction", "~" + thousands(nand2) + " NAND2"},
		{"BypassSaving=3", arrow(
			ablation("lavaMD", compiler.SwapECC, compiler.Opts{}, nil),
			ablation("lavaMD", compiler.SwapECC, compiler.Opts{}, bypassed))},
		{"Move propagation disabled", arrow(
			ablation("pathf", compiler.SwapECC, compiler.Opts{}, nil),
			ablation("pathf", compiler.SwapECC, noMoveProp, nil))},
		{"Infinite register file", arrow(
			ablation("snap", compiler.SWDup, compiler.Opts{}, nil),
			ablation("snap", compiler.SWDup, compiler.Opts{}, infiniteRegfile))},
		{"List scheduler", arrow(sched(false), sched(true))},
	}
	doc := docTableRows(t, "## Section VI extensions", "## Ablations (DESIGN.md §4)")
	for _, r := range rows {
		found := false
		for _, cells := range doc {
			if strings.Contains(cells[0], r.key) {
				found = true
				if !strings.Contains(strings.Join(cells[1:], "|"), r.want) {
					t.Errorf("EXPERIMENTS.md row %q does not carry the computed %q", cells[0], r.want)
				}
			}
		}
		if !found {
			t.Errorf("EXPERIMENTS.md has no row mentioning %q", r.key)
		}
	}
}

// thousands formats v rounded to the nearest ten, as the docs' "~" figures
// are, with a comma before the last three digits.
func thousands(v float64) string {
	n := 10 * int(math.Round(v/10))
	if n < 1000 {
		return fmt.Sprint(n)
	}
	return fmt.Sprintf("%d,%03d", n/1000, n%1000)
}

// docTableRows returns the cells of every table row under the given
// EXPERIMENTS.md section headings, up to each section's next heading.
func docTableRows(t *testing.T, headings ...string) [][]string {
	t.Helper()
	f, err := os.Open("EXPERIMENTS.md")
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
		case strings.HasPrefix(line, "## "):
			in = false
			for _, h := range headings {
				if line == h {
					in = true
				}
			}
		case in && strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
