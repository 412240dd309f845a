package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"swapcodes/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden and testdata/work.golden from current output")

// buildExperiments compiles the experiments binary under test. It builds
// without the race detector even under go test -race: the pin checks output
// bytes, and a race build of every experiment costs over a minute.
func buildExperiments(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestAllGolden pins the stdout of -exp all byte for byte: every table and
// figure the reproduction produces, at the default seeds. A change to any
// simulated number, however small, fails it; one that means to move numbers
// regenerates the golden with
//
//	go test ./cmd/experiments -run TestAllGolden -update
//
// and the diff shows exactly which numbers moved. Output is the same at
// every -workers count, so two workers keep the test's wall time down.
//
// The same run also pins what it computed: its work ledger (workLedger)
// must equal testdata/work.golden, which -update rewrites too. A change
// that adds or removes work, with every printed number unchanged, fails
// here with a ledger diff.
func TestAllGolden(t *testing.T) {
	bin := buildExperiments(t)
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "trace.json")
	cmd := exec.Command(bin, "-exp", "all", "-workers", "2", "-metrics", metrics, "-trace", trace)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments -exp all: %v\n%s", err, stderr.Bytes())
	}
	checkGolden(t, "all.golden", stdout.Bytes())
	checkLedger(t, "work.golden", workLedger(t, metrics, trace))
}

// readGolden rewrites testdata/name with got under -update, then returns
// its content.
func readGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAllGolden -update to create it)", err)
	}
	return want
}

// checkGolden fails at the first line where got differs from the golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want := readGolden(t, name, got)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	line := func(l [][]byte) []byte {
		if i < len(l) {
			return l[i]
		}
		return []byte("<end of output>")
	}
	t.Errorf("-exp all stdout differs from %s (%d bytes, want %d); first at line %d:\ngot:  %q\nwant: %q",
		path, len(got), len(want), i+1, line(gl), line(wl))
}

// workLedger is the work an -exp all run did, read from its -metrics and
// -trace files: every faultsim.* counter per unit, the cells the perf
// sweeps launched and the scheduler rounds those launches ran (the sums of
// "launched" and "rounds" over the perf:* spans), the traced launches (the
// trace:* spans) and the lanes those launches handed the tracer (the sum of
// "observed" over them). Each is a total, and the same at every worker
// count; which sweep launched a shared cell is not, so the ledger does not
// say.
func workLedger(t *testing.T, metricsPath, tracePath string) []byte {
	t.Helper()
	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	metrics, err := obs.DecodeJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, m := range metrics {
		if m.Type == "counter" && strings.HasPrefix(m.Name, "faultsim.") {
			fmt.Fprintf(&b, "%s %d\n", m.Name, m.Value)
		}
	}
	launched, rounds, traced, observed := 0, 0, 0, 0
	for _, e := range events {
		switch {
		case strings.HasPrefix(e.Name, "perf:"):
			n, _ := e.Args["launched"].(float64)
			launched += int(n)
			r, _ := e.Args["rounds"].(float64)
			rounds += int(r)
		case strings.HasPrefix(e.Name, "trace:"):
			traced++
			n, _ := e.Args["observed"].(float64)
			observed += int(n)
		}
	}
	fmt.Fprintf(&b, "perf:* launched %d\nperf:* rounds %d\ntrace:* spans %d\ntrace:* observed %d\n",
		launched, rounds, traced, observed)
	return b.Bytes()
}

// checkLedger fails with every ledger line that differs from the golden:
// "-" for the golden's, "+" for this run's.
func checkLedger(t *testing.T, name string, got []byte) {
	t.Helper()
	want := readGolden(t, name, got)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	in := func(lines []string) map[string]bool {
		m := make(map[string]bool, len(lines))
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	gotSet, wantSet := in(gl), in(wl)
	var diff strings.Builder
	for _, l := range wl {
		if !gotSet[l] {
			fmt.Fprintf(&diff, "-%s\n", l)
		}
	}
	for _, l := range gl {
		if !wantSet[l] {
			fmt.Fprintf(&diff, "+%s\n", l)
		}
	}
	t.Errorf("work ledger differs from testdata/%s:\n%s", name, diff.String())
}
