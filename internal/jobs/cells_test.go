package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swapcodes/internal/compiler"
	"swapcodes/internal/harness"
	"swapcodes/internal/obs"
	"swapcodes/internal/sm"
)

func newService(t *testing.T, opts Options) *Service {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// runSpec submits a spec and returns its payload once it is done.
func runSpec(t *testing.T, svc *Service, spec Spec) []byte {
	t.Helper()
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := svc.Get(id)
	if st := waitTerminal(t, j, 2*time.Minute); st.State != StateDone {
		t.Fatalf("%s job %v = %s: %s", spec.Kind, spec.Schemes, st.State, st.Error)
	}
	return j.Result()
}

func cellHits(svc *Service) int64 {
	return svc.rec.Registry().Counter(obs.Name("jobs.cache_hits", "item", "cell")).Value()
}

// cellLaunches counts the cells a service launched: every cell it found
// neither in the cache nor in flight is a miss and is launched.
func cellLaunches(svc *Service) int64 {
	return svc.rec.Registry().Counter(obs.Name("jobs.cache_misses", "item", "cell")).Value()
}

// TestPerfJobReusesCells: a perf job whose cells an earlier job computed
// launches nothing and returns the bytes the same spec returns cold on a
// fresh service; a job sharing only the baselines launches 15 cells per
// new scheme.
func TestPerfJobReusesCells(t *testing.T) {
	svc := newService(t, Options{Workers: 2})
	runSpec(t, svc, Spec{Kind: KindPerf, Schemes: []string{"swap-ecc", "pre-mad", "sw-dup"}})
	if got := cellLaunches(svc); got != 60 {
		t.Fatalf("first job launched %d cells, want 60", got)
	}

	spec := Spec{Kind: KindPerf, Schemes: []string{"sw-dup", "swap-ecc"}}
	hits := cellHits(svc)
	warm := runSpec(t, svc, spec)
	if got := cellLaunches(svc); got != 60 {
		t.Errorf("a job of stored cells launched %d", got-60)
	}
	if got := cellHits(svc) - hits; got != 45 {
		t.Errorf("%d cell hits, want 45", got)
	}
	cold := runSpec(t, newService(t, Options{Workers: 2}), spec)
	if !bytes.Equal(warm, cold) {
		t.Fatalf("payload assembled from stored cells differs from the cold run\nstored: %.300s\ncold:   %.300s", warm, cold)
	}

	runSpec(t, svc, Spec{Kind: KindPerf, Schemes: []string{"pre-addsub"}})
	if got := cellLaunches(svc) - 60; got != 15 {
		t.Errorf("a job sharing only the baselines launched %d cells, want 15", got)
	}
}

// TestCPIStackSectoredFromStoredCells is the byte-identity check on the
// sectored memory model: a cpistack job assembled from the cells of an
// earlier perf job equals the same spec run cold.
func TestCPIStackSectoredFromStoredCells(t *testing.T) {
	svc := newService(t, Options{Workers: 2})
	runSpec(t, svc, Spec{Kind: KindPerf, Schemes: []string{"swap-ecc", "pre-mad"}, MemModel: "sectored"})
	launched := cellLaunches(svc)
	spec := Spec{Kind: KindCPIStack, Schemes: []string{"pre-mad"}, MemModel: "sectored"}
	warm := runSpec(t, svc, spec)
	if got := cellLaunches(svc) - launched; got != 0 {
		t.Errorf("a cpistack job of stored cells launched %d", got)
	}
	cold := runSpec(t, newService(t, Options{Workers: 2}), spec)
	if !bytes.Equal(warm, cold) {
		t.Fatal("cpistack payload assembled from stored cells differs from the cold run")
	}
	if !strings.Contains(string(warm), "Memory CPI") {
		t.Fatal("sectored cpistack payload lacks the memory view")
	}
}

// TestConcurrentJobsLaunchSharedCellsOnce: two jobs running at once over
// the same cells, in opposite scheme orders, launch each cell once and
// both finish.
func TestConcurrentJobsLaunchSharedCellsOnce(t *testing.T) {
	svc := newService(t, Options{Workers: 2, MaxConcurrentJobs: 2})
	var ids []string
	for _, schemes := range [][]string{{"swap-ecc", "pre-mad"}, {"pre-mad", "swap-ecc"}} {
		id, err := svc.Submit(Spec{Kind: KindPerf, Schemes: schemes})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var means []map[string]float64
	for _, id := range ids {
		j, _ := svc.Get(id)
		if st := waitTerminal(t, j, 2*time.Minute); st.State != StateDone {
			t.Fatalf("job %s = %s: %s", id, st.State, st.Error)
		}
		var pr PerfResult
		if err := json.Unmarshal(j.Result(), &pr); err != nil {
			t.Fatal(err)
		}
		means = append(means, pr.Mean)
	}
	if got := cellLaunches(svc); got != 45 {
		t.Errorf("launched %d cells, want the 45 distinct ones", got)
	}
	for s, m := range means[0] {
		if means[1][s] != m {
			t.Errorf("%s mean %v vs %v", s, m, means[1][s])
		}
	}
}

// TestCellsSurviveRestart: a service reopened on the same state dir serves
// cells from the disk tier, and a CAS cell it cannot decode is launched
// again and overwritten.
func TestCellsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Options{StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	runSpec(t, svc, Spec{Kind: KindPerf, Schemes: []string{"swap-ecc"}})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	key := harness.CellKey("bfs", compiler.SwapECC, sm.DefaultConfig(), true)
	path := filepath.Join(dir, "cas", key[:2], key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cell not on disk: %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"stats":{"Cycles":`), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newService(t, Options{StateDir: dir, Workers: 2})
	runSpec(t, svc2, Spec{Kind: KindCPIStack, Schemes: []string{"swap-ecc"}})
	// Every cell was found on disk (the cache counts the corrupt one as a
	// hit too: it found bytes); only the corrupt one was launched again,
	// which the overwrite below shows.
	if got := cellLaunches(svc2); got != 0 {
		t.Errorf("restarted service missed %d cells on disk", got)
	}
	if got := cellHits(svc2); got != 30 {
		t.Errorf("%d cell hits from disk, want 30", got)
	}
	b, err := os.ReadFile(path)
	if err != nil || !json.Valid(b) {
		t.Fatalf("corrupt cell not overwritten: %v %q", err, b)
	}
}

// TestSubmitAnswersCachedResult: a spec whose result the cache holds is
// done when Submit returns, even with the executor busy and the queue
// full; it carries the cold run's bytes, its event stream ends on "done",
// and WAL replay lists it as done.
func TestSubmitAnswersCachedResult(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Options{StateDir: dir, Workers: 2, MaxConcurrentJobs: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()
	spec := Spec{Kind: KindCampaign, Tuples: 64, Seed: 1}
	cold := runSpec(t, svc, spec)

	// Occupy the executor, then fill the queue.
	blocker, err := svc.Submit(Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := svc.Get(blocker)
	for bj.State() == StateQueued {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue not full: %v", err)
	}

	spec.Tenant = "other"
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("cached spec rejected: %v", err)
	}
	j, _ := svc.Get(id)
	st := j.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("on return from Submit: state %s, cache_hit %v", st.State, st.CacheHit)
	}
	if st.StartedAt.Before(st.SubmittedAt) || st.FinishedAt.Before(st.StartedAt) {
		t.Fatalf("timestamps submitted %v started %v finished %v", st.SubmittedAt, st.StartedAt, st.FinishedAt)
	}
	if !bytes.Equal(j.Result(), cold) {
		t.Fatal("cached bytes differ from the cold run's")
	}

	mux := http.NewServeMux()
	svc.Register(mux)
	hs := httptest.NewServer(mux)
	defer hs.Close()
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "0")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var last Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(line), &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp.Body.Close()
	if last.Type != "done" || last.State != StateDone {
		t.Fatalf("event stream ends on %+v, want a done event", last)
	}

	for _, other := range svc.List() {
		_ = svc.Cancel(other.ID)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	svc2 := newService(t, Options{StateDir: dir})
	rj, ok := svc2.Get(id)
	if !ok {
		t.Fatalf("job %s not replayed", id)
	}
	if rj.State() != StateDone || !bytes.Equal(rj.Result(), cold) {
		t.Fatalf("replayed job %s: state %s, result equal %v", id, rj.State(), bytes.Equal(rj.Result(), cold))
	}
}
