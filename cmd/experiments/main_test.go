package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata from current output")

// binDir holds the experiments binary under test for the whole test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// build compiles the experiments binary once per test run; every test that
// runs the binary shares it. It builds without the race detector even under
// go test -race: the pin checks output bytes, and a race build of every
// experiment costs over a minute.
var build = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// buildExperiments returns the experiments binary under test.
func buildExperiments(t *testing.T) string {
	t.Helper()
	bin, err := build()
	if err != nil {
		t.Fatal(err)
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

// TestSIGTERMFlushes stops a run with SIGTERM, as kill and timeout(1) do:
// like Ctrl-C, it exits 1 rather than dying of the signal, says the run was
// cancelled, and the deferred flush writes a -metrics file that decodes and
// a -trace file that validates. Three sweeps on two workers run for
// seconds, so the signal lands mid-run.
func TestSIGTERMFlushes(t *testing.T) {
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	cmd := exec.Command(buildExperiments(t), "-exp", "fig12,fig15,fig16", "-workers", "2",
		"-metrics", metrics, "-trace", trace, "-metrics-interval", "20ms")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer time.AfterFunc(time.Minute, func() { cmd.Process.Kill() }).Stop()
	// The first progress line comes after the signal handler is set up,
	// while the sweeps run.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), "; tuples=") {
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stderr)
	err = cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !bytes.Contains(rest, []byte("cancelled; writing partial metrics")) {
		t.Fatalf("after SIGTERM: exit code %d (%v), stderr:\n%s\nwant exit 1 and a cancelled run", code, err, rest)
	}
	f, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := obs.DecodeJSON(f); err != nil {
		t.Errorf("-metrics file does not decode: %v", err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(raw); err != nil {
		t.Errorf("-trace file does not validate: %v", err)
	}
}

// TestSubmitRoundTrip runs -submit against an in-memory job service: fig10
// and fig11 share one campaign spec, so the service runs one job and both
// blocks print its payload; a local-only experiment is refused before any
// submission.
func TestSubmitRoundTrip(t *testing.T) {
	svc, err := jobs.New(jobs.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mux := http.NewServeMux()
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	bin := buildExperiments(t)

	cmd := exec.Command(bin, "-submit", ts.URL, "-exp", "fig10,fig11", "-tuples", "64")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("-submit -exp fig10,fig11: %v\n%s", err, stderr.Bytes())
	}
	if n := len(svc.List()); n != 1 {
		t.Errorf("service holds %d jobs, want 1: fig10 and fig11 share one campaign spec", n)
	}
	fig10, fig11, ok := strings.Cut(strings.TrimPrefix(string(out), "== fig10 ==\n"), "== fig11 ==\n")
	if !strings.HasPrefix(string(out), "== fig10 ==\n") || !ok || fig10 != fig11 ||
		!strings.Contains(fig10, `"kind": "campaign"`) {
		t.Errorf("stdout is not one campaign payload under == fig10 == and == fig11 ==:\n%s", out)
	}

	out, err = exec.Command(bin, "-submit", ts.URL, "-exp", "fig13").CombinedOutput()
	if code := exitCode(err); code != 1 || !bytes.Contains(out, []byte("cannot run via -submit")) {
		t.Errorf("-submit -exp fig13: exit code %d, output:\n%s\nwant exit 1 and a refusal", code, out)
	}
	if n := len(svc.List()); n != 1 {
		t.Errorf("service holds %d jobs after the refused run, want 1", n)
	}
}

// TestSubmitHonoursTimeout: -timeout ends a -submit run whose job never
// finishes; it exits 1 well before the test gives up on it.
func TestSubmitHonoursTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"stub"}`)
	})
	mux.HandleFunc("GET /jobs/stub", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(jobs.Status{ID: "stub", State: jobs.StateRunning})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cmd := exec.Command(buildExperiments(t), "-submit", ts.URL, "-exp", "fig12", "-timeout", "300ms")
	defer time.AfterFunc(5*time.Second, func() { cmd.Process.Kill() }).Stop()
	out, err := cmd.CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Errorf("exit code %d (%v) within 5 s, output:\n%s\nwant 1: -timeout 300ms ends the poll", code, err, out)
	}
}

// exitCode is a finished command's exit code: 0 for a nil error, -1 when
// the command did not exit on its own.
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		return -1
	}
	return 0
}

// TestFlagsGolden pins the flag set: the name, type and default of every
// flag -h lists must equal testdata/flags.golden, which -update rewrites.
// Usage text is not pinned.
func TestFlagsGolden(t *testing.T) {
	out, err := exec.Command(buildExperiments(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -h: %v\n%s", err, out)
	}
	got := flagTable(out)
	if want := readGolden(t, "flags.golden", got); !bytes.Equal(got, want) {
		t.Errorf("flags differ from testdata/flags.golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// flagTable reduces -h output to one line per flag: its name, its type as
// -h prints it (bool when it prints none) and, when -h shows one, its
// default.
func flagTable(help []byte) []byte {
	var rows []string
	for _, line := range strings.Split(string(help), "\n") {
		head, usage, _ := strings.Cut(line, "\t")
		if strings.HasPrefix(head, "  -") {
			f := append(strings.Fields(head), "bool")
			rows = append(rows, f[0]+" "+f[1])
		}
		if i := strings.LastIndex(usage, " (default "); i >= 0 && len(rows) > 0 {
			rows[len(rows)-1] += " default " + strings.TrimSuffix(usage[i+len(" (default "):], ")")
		}
	}
	return []byte(strings.Join(rows, "\n") + "\n")
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
		t.Fatalf("%v (run go test -update to create it)", err)
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
