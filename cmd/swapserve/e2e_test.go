package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
)

// The e2e campaign: small enough to finish in seconds, large enough (two
// shards per unit, twelve total) that a kill lands mid-run.
var e2eSpec = jobs.Spec{Kind: jobs.KindCampaign, Tuples: 600, Seed: 1}

// The e2e sweeps: a one-scheme perf job that finishes before the kill, and
// a cpistack job over the same 30 (workload, scheme) cells that the
// restarted server must assemble from the cells on disk.
var (
	e2ePerfSpec  = jobs.Spec{Kind: jobs.KindPerf, Schemes: []string{"swap-ecc"}}
	e2eCellsSpec = jobs.Spec{Kind: jobs.KindCPIStack, Schemes: []string{"swap-ecc"}}
)

// runJob submits a spec, waits for it and returns its payload.
func runJob(ctx context.Context, t *testing.T, c *jobs.Client, spec jobs.Spec) []byte {
	t.Helper()
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("%s job = %s: %s", spec.Kind, st.State, st.Error)
	}
	raw, err := c.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// scrapeCounter reads one sample of /metrics' Prometheus text.
func scrapeCounter(t *testing.T, base, sample string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", sample, err)
			}
			return n
		}
	}
	return 0
}

// buildServer compiles the swapserve binary under test. With
// SWAPSERVE_E2E_RACE=1 (the CI smoke job) it builds with the race detector,
// so the kill/resume sequence also shakes out data races in the service.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "swapserve")
	args := []string{"build"}
	if os.Getenv("SWAPSERVE_E2E_RACE") == "1" {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, ".")
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %v: %v\n%s", args, err, out)
	}
	return bin
}

// server is one running swapserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	done   chan error
	stderr bytes.Buffer // structured log lines; read only after <-done
}

// startServer launches the binary against stateDir and waits for the listen
// line to learn the ephemeral port. Extra flags (e.g. -trace) append after
// the defaults. Stderr is teed into s.stderr so tests can grep the
// structured logs once the process exits.
func startServer(t *testing.T, bin, stateDir string, extra ...string) *server {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-state", stateDir,
		"-max-jobs", "1",
		"-workers", "2"}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	s := &server{cmd: cmd, done: make(chan error, 1)}
	cmd.Stderr = io.MultiWriter(os.Stderr, &s.stderr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { s.done <- cmd.Wait() }()
	t.Cleanup(func() { s.kill() })

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "listening on http://") {
				lines <- line
				break
			}
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("server exited before printing its listen address")
		}
		i := strings.Index(line, "http://")
		s.base = strings.Fields(line[i:])[0]
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the server listen line")
	case err := <-s.done:
		t.Fatalf("server exited early: %v", err)
	}
	return s
}

// kill SIGKILLs the child — the mid-job crash the WAL must absorb.
func (s *server) kill() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Kill()
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
	}
}

func (s *server) client() *jobs.Client { return &jobs.Client{Base: s.base} }

// TestServerE2EKillResume is the acceptance test of the job server: a
// campaign killed (SIGKILL) mid-run resumes from its shard checkpoints
// after a restart against the same state dir and produces byte-identical
// results to an uninterrupted run — and a second identical submission is
// served from the content-addressed cache at least 5x faster than the cold
// run. The sweep cells of a perf job finished before the kill survive it
// too: after the restart a job over the same cells is assembled from the
// disk tier, byte-identical to an uninterrupted server's cold run.
func TestServerE2EKillResume(t *testing.T) {
	bin := buildServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Reference: an uninterrupted run in a fresh state dir, timed as the
	// cold-run baseline for the cache-speedup assertion.
	refSrv := startServer(t, bin, filepath.Join(t.TempDir(), "ref-state"))
	refClient := refSrv.client()
	coldStart := time.Now()
	refID, err := refClient.Submit(ctx, e2eSpec)
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := refClient.Wait(ctx, refID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)
	if refSt.State != jobs.StateDone {
		t.Fatalf("reference run = %s: %s", refSt.State, refSt.Error)
	}
	refBytes, err := refClient.Result(ctx, refID)
	if err != nil {
		t.Fatal(err)
	}
	refCells := runJob(ctx, t, refClient, e2eCellsSpec)
	refSrv.kill()

	// Victim: same spec in its own state dir, SIGKILLed after at least one
	// shard checkpoint but before completion.
	stateDir := filepath.Join(t.TempDir(), "state")
	srv := startServer(t, bin, stateDir)
	runJob(ctx, t, srv.client(), e2ePerfSpec)
	id, err := srv.client().Submit(ctx, e2eSpec)
	if err != nil {
		t.Fatal(err)
	}
	killedMidRun := false
	for {
		st, err := srv.client().Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == jobs.StateRunning && st.ShardsDone >= 1 && st.ShardsDone < st.ShardsTotal {
			killedMidRun = true
			break
		}
		if st.State.Terminal() {
			// Too fast to catch mid-run: the kill below still exercises the
			// restart path, just without outstanding shards.
			t.Logf("job reached %s before the kill window", st.State)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.kill()

	// Restart against the same state dir: the WAL re-enqueues the job with
	// its checkpoints and the run completes from where it stopped.
	srv2 := startServer(t, bin, stateDir)
	c2 := srv2.client()
	st, err := c2.Wait(ctx, id, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("resumed job = %s: %s", st.State, st.Error)
	}
	gotBytes, err := c2.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("resumed result differs from uninterrupted run\nresumed:   %.200s\nreference: %.200s",
			gotBytes, refBytes)
	}
	if killedMidRun {
		t.Logf("killed mid-run and resumed: %d shards, byte-identical result", st.ShardsTotal)
	}

	// Cell reuse across the kill: every cell of the cpistack job was
	// computed by the perf job before the kill, so the restarted server
	// reads all 30 from the disk tier.
	const cellHits = `jobs_cache_hits{item="cell"}`
	hits := scrapeCounter(t, srv2.base, cellHits)
	if got := runJob(ctx, t, c2, e2eCellsSpec); !bytes.Equal(got, refCells) {
		t.Fatalf("job over restored cells differs from an uninterrupted server's\nrestored:  %.200s\nreference: %.200s",
			got, refCells)
	}
	if n := scrapeCounter(t, srv2.base, cellHits) - hits; n != 30 {
		t.Fatalf("%s rose by %d, want all 30 cells served from disk", cellHits, n)
	}

	// Cache speedup: an identical submission to the restarted server must be
	// served from the content-addressed result cache — same bytes, at least
	// 5x faster than the cold run.
	warmStart := time.Now()
	id2, err := c2.Submit(ctx, e2eSpec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.Wait(ctx, id2, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := time.Since(warmStart)
	if st2.State != jobs.StateDone {
		t.Fatalf("cached run = %s: %s", st2.State, st2.Error)
	}
	if !st2.CacheHit {
		t.Fatal("identical resubmission was not served from cache")
	}
	cachedBytes, err := c2.Result(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cachedBytes, refBytes) {
		t.Fatal("cached result differs from reference bytes")
	}
	if warm*5 > cold {
		t.Fatalf("cache speedup too small: cold %v, cached %v (want >=5x)", cold, warm)
	}
	t.Logf("cold %v, cached %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
}

// scrapeJSON GETs path from the server and decodes the body into out,
// returning the status code.
func scrapeJSON(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: not JSON: %v\n%s", path, err, body)
		}
	}
	return resp.StatusCode
}

// TestServerE2ETraceHealthLifecycle is the observability acceptance test: a
// campaign submitted under a client-chosen trace ID is SIGKILLed mid-run and
// resumed on a fresh process, and its whole lifecycle — job record, WAL,
// structured logs, and the Chrome trace flushed by the second server — is
// reconstructable from the artifacts, all correlated by that one trace ID.
// The health and telemetry endpoints are scraped along the way.
func TestServerE2ETraceHealthLifecycle(t *testing.T) {
	bin := buildServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"

	stateDir := filepath.Join(t.TempDir(), "state")
	srv := startServer(t, bin, stateDir)

	// Health surface on a live, idle server.
	var hz map[string]string
	if code := scrapeJSON(t, srv.base, "/healthz", &hz); code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("/healthz = %d %v", code, hz)
	}
	var rz struct {
		Ready  bool              `json:"ready"`
		Checks map[string]string `json:"checks"`
	}
	if code := scrapeJSON(t, srv.base, "/readyz", &rz); code != http.StatusOK || !rz.Ready {
		t.Fatalf("/readyz = %d %+v", code, rz)
	}
	for _, check := range []string{"wal", "queue", "runner"} {
		if rz.Checks[check] != "ok" {
			t.Fatalf("/readyz check %q = %q, want ok (%+v)", check, rz.Checks[check], rz)
		}
	}
	var bi struct {
		GoVersion string `json:"go_version"`
		Path      string `json:"path"`
	}
	if code := scrapeJSON(t, srv.base, "/buildinfo", &bi); code != http.StatusOK || bi.GoVersion == "" {
		t.Fatalf("/buildinfo = %d %+v", code, bi)
	}

	// Submit under a fixed trace ID and SIGKILL mid-run.
	c := srv.client()
	c.Trace = traceID
	id, err := c.Submit(ctx, e2eSpec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.TraceID != traceID {
			t.Fatalf("status trace_id = %q, want %q", st.TraceID, traceID)
		}
		if st.State == jobs.StateRunning && st.ShardsDone >= 1 || st.State.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.kill()

	// Resume on a fresh process that flushes a Chrome trace on shutdown.
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	srv2 := startServer(t, bin, stateDir, "-trace", tracePath)
	c2 := srv2.client()
	st, err := c2.Wait(ctx, id, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone || st.TraceID != traceID {
		t.Fatalf("resumed job = %s trace %q, want done under %q", st.State, st.TraceID, traceID)
	}

	// The timeseries ring has been sampling since boot (1s period): by the
	// time a 600-tuple campaign resumed and finished, at least the field
	// contract must hold; poll briefly for the first sample.
	var tsd struct {
		PeriodMS int64 `json:"period_ms"`
		Capacity int   `json:"capacity"`
		Samples  []struct {
			TMS    int64              `json:"t_ms"`
			Values map[string]float64 `json:"values"`
		} `json:"samples"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := scrapeJSON(t, srv2.base, "/timeseries", &tsd); code != http.StatusOK {
			t.Fatalf("/timeseries = %d", code)
		}
		if len(tsd.Samples) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if tsd.PeriodMS <= 0 || tsd.Capacity <= 0 || len(tsd.Samples) == 0 {
		t.Fatalf("/timeseries dump = %+v", tsd)
	}

	// Graceful exit flushes the trace file.
	if err := srv2.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-srv2.done:
		if err != nil {
			t.Fatalf("server exited non-zero on SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit on SIGINT")
	}

	// Artifact 1: the WAL's job record carries the trace ID.
	wal, err := os.ReadFile(filepath.Join(stateDir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	walTrace := ""
	for _, line := range bytes.Split(wal, []byte("\n")) {
		var rec struct {
			T     string `json:"t"`
			ID    string `json:"id"`
			Trace string `json:"trace"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.T == "job" && rec.ID == id {
			walTrace = rec.Trace
		}
	}
	if walTrace != traceID {
		t.Errorf("wal job record trace = %q, want %q", walTrace, traceID)
	}

	// Artifact 2: the flushed Chrome trace stamps the resumed execution's
	// spans with the same ID.
	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ValidateTrace(traceBytes)
	if err != nil {
		t.Fatal(err)
	}
	stamped := 0
	for _, ev := range evs {
		if got, ok := ev.Args["trace_id"].(string); ok {
			if got != traceID {
				t.Fatalf("span %q trace_id = %q, want %q", ev.Name, got, traceID)
			}
			stamped++
		}
	}
	if stamped == 0 {
		t.Error("flushed trace has no trace_id-stamped spans")
	}

	// Artifact 3: both processes' structured logs carry the trace ID, so one
	// grep reconstructs the lifecycle across the kill.
	for i, s := range []*server{srv, srv2} {
		logs := s.stderr.String()
		if !strings.Contains(logs, traceID) {
			t.Errorf("server %d stderr has no %s line:\n%.2000s", i+1, traceID, logs)
		}
	}
	if !strings.Contains(srv2.stderr.String(), "job resumed from wal") {
		t.Errorf("second server logs missing resume line")
	}
	t.Logf("lifecycle for %s reconstructable: WAL + %d spans + logs from both processes under trace %s",
		id, stamped, traceID)
}

// TestServerE2EGracefulSignal checks SIGTERM drains cleanly: the server
// exits zero and leaves a replayable state dir.
func TestServerE2EGracefulSignal(t *testing.T) {
	bin := buildServer(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	srv := startServer(t, bin, stateDir)
	if err := srv.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-srv.done:
		if err != nil {
			t.Fatalf("server exited non-zero on SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit on SIGINT")
	}
	if _, err := os.Stat(filepath.Join(stateDir, "wal.jsonl")); err != nil {
		t.Fatalf("state dir not initialized: %v", err)
	}
}
