package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"swapcodes/internal/compiler"
	"swapcodes/internal/harness"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs"
)

// buildSwapsim compiles the binary under test (without the race detector,
// as cmd/experiments' tests do: the checks read its output, not its races).
func buildSwapsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "swapsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
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
