package main

import (
	"bufio"
	"bytes"
	"context"
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

	"swapcodes/internal/compiler"
	"swapcodes/internal/harness"
	"swapcodes/internal/isa"
	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from current output")

// binDir holds the swapsim binary under test for the whole test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swapsim-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// build compiles the binary under test once per test run (without the race
// detector, as cmd/experiments' tests do: the checks read its output, not
// its races).
var build = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "swapsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// buildSwapsim returns the swapsim binary under test.
func buildSwapsim(t *testing.T) string {
	t.Helper()
	bin, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestFlagsGolden pins the flag set: the name, type and default of every
// flag -h lists must equal testdata/flags.golden, which -update rewrites.
// Usage text is not pinned.
func TestFlagsGolden(t *testing.T) {
	out, err := exec.Command(buildSwapsim(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("swapsim -h: %v\n%s", err, out)
	}
	got, path := flagTable(out), filepath.Join("testdata", "flags.golden")
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
		t.Fatalf("%v (run go test -run TestFlagsGolden -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flags differ from %s:\ngot:\n%swant:\n%s", path, got, want)
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

// runSwapsim runs the binary and returns its stdout, stderr and exit error.
func runSwapsim(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestFaultFlags drives the fault flags end to end: a lane or bit outside
// a warp or a register is refused before any launch, naming the flag; the
// README's first fault example is detected and verified; and its second,
// whose fault makes bprop load out of bounds, reports the crash as the
// run's outcome.
func TestFaultFlags(t *testing.T) {
	bin := buildSwapsim(t)
	for _, c := range []struct{ flag, value string }{
		{"-lane", "40"}, {"-lane", "-2"}, {"-bit", "41"}, {"-bit", "32"},
	} {
		stdout, stderr, err := runSwapsim(t, bin, "-workload", "bprop", "-scheme", "swap-ecc",
			"-fault", "49", c.flag, c.value)
		if err == nil || stdout != "" || !strings.Contains(stderr, c.flag+" "+c.value) {
			t.Errorf("%s %s: err=%v stdout=%q stderr=%q; want a refusal naming the flag and no launch",
				c.flag, c.value, err, stdout, stderr)
		}
	}

	stdout, stderr, err := runSwapsim(t, bin, "-workload", "bprop", "-scheme", "swap-ecc",
		"-fault", "49", "-lane", "3", "-bit", "21")
	if err != nil {
		t.Fatalf("-fault 49: %v\n%s", err, stderr)
	}
	for _, want := range []string{"fault       applied=true", "pipeline DUEs=5,", "output      verified correct"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-fault 49: report lacks %q:\n%s", want, stdout)
		}
	}

	stdout, stderr, err = runSwapsim(t, bin, "-workload", "bprop", "-scheme", "swap-ecc",
		"-fault", "9", "-lane", "-1", "-bit", "-1", "-seed", "7")
	if err != nil {
		t.Fatalf("-fault 9 -seed 7: %v\n%s", err, stderr)
	}
	for _, want := range []string{"fault       applied=true", "output      CRASHED: sm: kernel bprop: LDG out of bounds"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-fault 9 -seed 7: report lacks %q:\n%s", want, stdout)
		}
	}
}

// TestRingOverflowSaysSo runs a -file kernel whose one warp issues more
// decisions than a whole-launch ring holds: the run still reports, and both
// its trace and stderr say the SM timeline was omitted.
func TestRingOverflowSaysSo(t *testing.T) {
	a := compiler.NewAsm("spin")
	a.S2R(0, isa.SRLane)
	a.IMulI(0, 0, 0)
	a.Label("loop")
	a.IAddI(0, 0, 1)
	a.ISetpI(isa.CmpLT, 0, 0, harness.LaunchRings)
	a.BraP(0, false, "loop", "done")
	a.Label("done")
	a.Exit()
	dir := t.TempDir()
	src, trace := filepath.Join(dir, "spin.sasm"), filepath.Join(dir, "trace.json")
	if err := os.WriteFile(src, []byte(compiler.Format(a.MustBuild(1, 32, 0))), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := runSwapsim(t, buildSwapsim(t), "-file", src, "-scheme", "baseline", "-trace", trace)
	if err != nil || !strings.Contains(stdout, "cycles") {
		t.Fatalf("err = %v, stdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	if !strings.Contains(stderr, "SM timeline omitted") {
		t.Errorf("stderr does not say the timeline was omitted:\n%s", stderr)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	said, spans := false, 0
	for _, e := range events {
		said = said || strings.HasPrefix(e.Name, "flight rings overflowed")
		if e.Cat == "warp" {
			spans++
		}
	}
	if !said || spans != 0 {
		t.Errorf("trace: overflow instant %v, %d warp spans; want the instant and no short timeline", said, spans)
	}
}

// TestSIGTERMFlushes stops a launch with SIGTERM, as kill and timeout(1)
// do: like Ctrl-C, it reports the partial run, exits 1 rather than dying
// of the signal, and the deferred flush writes the -metrics file and a
// -trace file that validates.
func TestSIGTERMFlushes(t *testing.T) {
	a := compiler.NewAsm("spin")
	a.S2R(0, isa.SRLane)
	a.IMulI(0, 0, 0)
	a.Label("loop")
	a.IAddI(0, 0, 1)
	a.ISetpI(isa.CmpLT, 0, 0, 1<<30) // minutes of simulation: the signal ends it
	a.BraP(0, false, "loop", "done")
	a.Label("done")
	a.Exit()
	dir := t.TempDir()
	src := filepath.Join(dir, "spin.sasm")
	metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	if err := os.WriteFile(src, []byte(compiler.Format(a.MustBuild(1, 32, 0))), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(buildSwapsim(t), "-file", src, "-scheme", "baseline",
		"-metrics", metrics, "-trace", trace, "-metrics-interval", "20ms")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer time.AfterFunc(time.Minute, func() { cmd.Process.Kill() }).Stop()
	// The first progress line comes after the signal handler is set up,
	// while the launch runs.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "swapsim: ") {
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stderr)
	err = cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(stdout.String(), "PARTIAL") {
		t.Fatalf("after SIGTERM: exit code %d (%v), stdout:\n%s\nstderr:\n%s\nwant exit 1 and a partial report",
			code, err, stdout.String(), rest)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Errorf("-metrics file is not JSON:\n%s", raw)
	}
	raw, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(raw); err != nil {
		t.Errorf("-trace file does not validate: %v", err)
	}
}

// TestCheckFaultSite pins the accepted range: -1 (drawn from -seed) and
// 0..31 for both flags.
func TestCheckFaultSite(t *testing.T) {
	for _, v := range []int{-1, 0, 31} {
		if err := checkFaultSite(v, v); err != nil {
			t.Errorf("lane=bit=%d refused: %v", v, err)
		}
	}
	if err := checkFaultSite(32, 0); err == nil || !strings.Contains(err.Error(), "-lane") {
		t.Errorf("lane 32: err = %v, want one naming -lane", err)
	}
	if err := checkFaultSite(0, -5); err == nil || !strings.Contains(err.Error(), "-bit") {
		t.Errorf("bit -5: err = %v, want one naming -bit", err)
	}
}

// secondPollCancel is live on its first Err call and cancelled on every
// later one. The SM polls its context once every 4,096 rounds, so a launch
// under it stops mid-flight at its second poll, at the same round on every
// run — a -timeout that fires at a deterministic point.
type secondPollCancel struct {
	context.Context
	polls int
}

func (c *secondPollCancel) Err() error {
	c.polls++
	if c.polls == 1 {
		return nil
	}
	return context.Canceled
}

// TestStoppedLaunchTrace stops a lavaMD launch mid-flight: swapsim still
// reports the partial run, its trace validates, and the spans of the warps
// still resident at the stop end at the stop cycle.
func TestStoppedLaunchTrace(t *testing.T) {
	rec := obs.NewRecorder()
	report, err := runScheme(&secondPollCancel{Context: context.Background()}, compiler.SwapECC,
		runOpts{name: "lavaMD", fault: -1, rec: rec})
	if !errors.Is(err, context.Canceled) || !strings.Contains(report, "PARTIAL") {
		t.Fatalf("err = %v, report:\n%s\nwant a partial report of a cancelled launch", err, report)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("stopped launch's trace does not validate: %v", err)
	}
	stop := rec.Registry().SumCounters("sm.cycles")
	resident, atStop, spans := int64(-1), int64(0), 0
	for _, e := range events {
		switch {
		case e.Name == "sm.occupancy" && e.TS == stop:
			resident = int64(e.Args["warps"].(float64))
		case e.Ph == "X" && e.Cat == "warp":
			spans++
			if end := e.TS + e.Dur; end == stop {
				atStop++
			} else if end > stop {
				t.Errorf("warp span %s ends at %d, past the stop at %d", e.Name, end, stop)
			}
		}
	}
	if resident <= 0 || atStop != resident {
		t.Errorf("%d warps resident at the stop (cycle %d), %d spans end there", resident, stop, atStop)
	}
	if got := rec.Registry().SumCounters("sm.warps_retired"); got != int64(spans) {
		t.Errorf("sm.warps_retired = %d, want one per span (%d)", got, spans)
	}
}

// submitStub stands in for a swapserve: it records the body of every
// POST /jobs and reports its one job in the given state, with a text
// result once done.
func submitStub(t *testing.T, state jobs.State) (url string, posted func() []string) {
	t.Helper()
	var mu sync.Mutex
	var bodies []string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"stub"}`)
	})
	mux.HandleFunc("GET /jobs/stub", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(jobs.Status{ID: "stub", State: state})
	})
	mux.HandleFunc("GET /jobs/stub/result", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"text":"stub result"}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), bodies...)
	}
}

// TestSubmitCarriesMemModel: -submit posts the parsed -mem-model in its
// perf spec, and an unknown model exits 1 before any request.
func TestSubmitCarriesMemModel(t *testing.T) {
	url, posted := submitStub(t, jobs.StateDone)
	bin := buildSwapsim(t)
	stdout, stderr, err := runSwapsim(t, bin, "-submit", url, "-scheme", "swap-ecc", "-mem-model", "sectored")
	if err != nil || !strings.Contains(stdout, "stub result") {
		t.Fatalf("-submit -mem-model sectored: %v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	if got := posted(); len(got) != 1 || !strings.Contains(got[0], `"mem_model":"sectored"`) {
		t.Errorf("posted specs %q, want one carrying \"mem_model\":\"sectored\"", got)
	}
	_, stderr, err = runSwapsim(t, bin, "-submit", url, "-scheme", "swap-ecc", "-mem-model", "bogus")
	if code := exitCode(err); code != 1 || len(posted()) != 1 {
		t.Errorf("-mem-model bogus: exit code %d, %d specs posted, stderr:\n%s\nwant exit 1 and no new request",
			code, len(posted()), stderr)
	}
}

// TestSubmitHonoursTimeout: -timeout ends a -submit run whose job never
// finishes; it exits 1 well before the test gives up on it.
func TestSubmitHonoursTimeout(t *testing.T) {
	url, _ := submitStub(t, jobs.StateRunning)
	cmd := exec.Command(buildSwapsim(t), "-submit", url, "-scheme", "swap-ecc", "-timeout", "300ms")
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
