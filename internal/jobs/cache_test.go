package jobs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swapcodes/internal/obs"
	"swapcodes/internal/trace"
)

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	return reg.Counter(name).Value()
}

func TestCacheHitMissCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCache(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("trace", "v1", "limit=10")
	if _, ok := c.Get("trace", key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put("trace", key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("trace", key); !ok || string(v) != "payload" {
		t.Fatalf("get after put = %q, %v", v, ok)
	}
	hits := counterValue(t, reg, obs.Name("jobs.cache_hits", "item", "trace"))
	misses := counterValue(t, reg, obs.Name("jobs.cache_misses", "item", "trace"))
	if hits != 1 || misses != 1 {
		t.Fatalf("counters = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("result", "spec-hash")
	if err := c1.Put("result", key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// A fresh instance over the same directory (a restarted server) serves
	// the entry from disk.
	c2, err := NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c2.Get("result", key); !ok || string(v) != `{"x":1}` {
		t.Fatalf("disk get = %q, %v", v, ok)
	}
}

func TestCacheKeyDistinguishesBoundaries(t *testing.T) {
	if CacheKey("ab", "c") == CacheKey("a", "bc") {
		t.Fatal("part boundaries not encoded")
	}
	if CacheKey("a") != CacheKey("a") {
		t.Fatal("CacheKey not deterministic")
	}
}

// corruptTrace is a trace entry whose one unit claims 2^62 tuples: the
// bytes of a real, empty trace with its unit count patched to one.
func corruptTrace(t *testing.T, limit int) []byte {
	t.Helper()
	b, err := trace.NewOperandTrace(limit).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b = binary.AppendUvarint(b[:len(b)-1], 1) // unit count 0 → 1
	b = binary.AppendUvarint(b, 1)            // name length
	b = append(b, 'u')
	return binary.AppendUvarint(b, 1<<62) // tuple count
}

// TestCorruptTraceEntryIsRecollected: a corrupt operand trace under
// <state>/cas is recollected, not decoded into a panic that takes the
// service down, and the campaign job returns a cold service's bytes.
func TestCorruptTraceEntryIsRecollected(t *testing.T) {
	const tuples = 64
	spec := Spec{Kind: KindCampaign, Tuples: tuples, Seed: 1}
	cold := runSpec(t, newService(t, Options{Workers: 2}), spec)

	dir := t.TempDir()
	key := CacheKey("trace", "v1", fmt.Sprintf("limit=%d", tuples))
	path := filepath.Join(dir, "cas", key[:2], key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, corruptTrace(t, tuples), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runSpec(t, newService(t, Options{StateDir: dir, Workers: 2}), spec)
	if !bytes.Equal(got, cold) {
		t.Error("campaign over a recollected trace differs from a cold service's")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.NewOperandTrace(tuples).UnmarshalBinary(b); err != nil {
		t.Errorf("corrupt trace entry not replaced by the recollected one: %v", err)
	}
}

// TestHeadlineReadsCampaignTrace: a headline job after a campaign job at
// the same tuple limit plans its campaign over the operand trace the
// campaign job stored in the CAS: one more trace hit, and no trace:*
// launch. The headline's seed differs from the campaign's, so its
// campaign is not the stored campaign result.
func TestHeadlineReadsCampaignTrace(t *testing.T) {
	const tuples = 64
	svc := newService(t, Options{Workers: 2})
	traceHits := func() int64 {
		return svc.rec.Registry().Counter(obs.Name("jobs.cache_hits", "item", "trace")).Value()
	}
	traceSpans := func() int {
		n := 0
		for _, e := range svc.rec.Events() {
			if strings.HasPrefix(e.Name, "trace:") {
				n++
			}
		}
		return n
	}
	runSpec(t, svc, Spec{Kind: KindCampaign, Tuples: tuples, Seed: 1})
	hits, spans := traceHits(), traceSpans()
	if spans == 0 {
		t.Fatal("the campaign job collected its trace without a trace:* span")
	}
	runSpec(t, svc, Spec{Kind: KindHeadline, Tuples: tuples, Seed: 2})
	if got := traceHits(); got != hits+1 {
		t.Errorf("the headline job added %d trace hits, want 1", got-hits)
	}
	if got := traceSpans(); got != spans {
		t.Errorf("the headline job recorded %d trace:* spans, want none", got-spans)
	}
}

// TestConcurrentCampaignsCollectOneTrace: two campaign jobs at one tuple
// limit, of different seeds, submitted back to back to a service that runs
// two jobs at once, collect their operand trace once. The first to ask for
// it collects it (one trace miss, the three traced launches of a
// 1,000-tuple collection); the other waits for it, or finds it stored, and
// reads it (one trace hit). Either way both payloads equal those of the
// same jobs run one after the other.
func TestConcurrentCampaignsCollectOneTrace(t *testing.T) {
	specs := []Spec{{Kind: KindCampaign, Tuples: 1000, Seed: 1}, {Kind: KindCampaign, Tuples: 1000, Seed: 2}}
	seq := newService(t, Options{Workers: 2})
	var want [][]byte
	for _, spec := range specs {
		want = append(want, runSpec(t, seq, spec))
	}

	rec := obs.NewRecorder()
	svc := newService(t, Options{Workers: 2, MaxConcurrentJobs: 2, Recorder: rec})
	var jobs []*Job
	for _, spec := range specs {
		id, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := svc.Get(id)
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		if st := waitTerminal(t, j, 2*time.Minute); st.State != StateDone {
			t.Fatalf("seed %d job = %s: %s", specs[i].Seed, st.State, st.Error)
		}
		if !bytes.Equal(j.Result(), want[i]) {
			t.Errorf("seed %d payload differs from a sequential run's", specs[i].Seed)
		}
	}
	reg := rec.Registry()
	hits := counterValue(t, reg, obs.Name("jobs.cache_hits", "item", "trace"))
	misses := counterValue(t, reg, obs.Name("jobs.cache_misses", "item", "trace"))
	spans := 0
	for _, e := range rec.Events() {
		if e.Ph == "X" && strings.HasPrefix(e.Name, "trace:") {
			spans++
		}
	}
	if misses != 1 || hits != 1 || spans != 3 {
		t.Errorf("trace misses %d, hits %d, trace:* spans %d; want 1, 1 and 3", misses, hits, spans)
	}
}

// TestStreamedCampaignJobMatchesCASJob: a campaign job on a fresh state
// directory collects its trace and runs each unit's shards as the tracer
// fills the unit; the same spec on a service whose CAS already holds the
// trace (from a job of another seed) releases every unit at once. The two
// payloads are the same bytes.
func TestStreamedCampaignJobMatchesCASJob(t *testing.T) {
	spec := Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 1}

	fresh := newService(t, Options{StateDir: t.TempDir(), Workers: 2})
	streamed := runSpec(t, fresh, spec)
	// Collected and streamed: some unit was released before the last
	// traced launch ended (its span is written after the launch).
	firstRelease, lastTrace := -1, -1
	for i, e := range fresh.rec.Events() {
		switch {
		case strings.HasPrefix(e.Name, "release:") && firstRelease < 0:
			firstRelease = i
		case strings.HasPrefix(e.Name, "trace:"):
			lastTrace = i
		}
	}
	if firstRelease < 0 || firstRelease > lastTrace {
		t.Fatalf("no unit released during collection (first release event %d, last trace span %d)", firstRelease, lastTrace)
	}

	warm := newService(t, Options{StateDir: t.TempDir(), Workers: 2})
	runSpec(t, warm, Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 2})
	hits := warm.rec.Registry().Counter(obs.Name("jobs.cache_hits", "item", "trace")).Value()
	fromCAS := runSpec(t, warm, spec)
	if got := warm.rec.Registry().Counter(obs.Name("jobs.cache_hits", "item", "trace")).Value(); got != hits+1 {
		t.Fatalf("the second job read the CAS trace %d times, want 1", got-hits)
	}
	if !bytes.Equal(streamed, fromCAS) {
		t.Fatal("a streamed campaign's payload differs from the same spec's over the CAS trace")
	}
}

// TestResultCountedOncePerJob: a cold campaign job counts one result miss,
// not one at submit and one at run, and an identical resubmission answered
// at submit counts one hit, so the hit ratio reads 50%.
func TestResultCountedOncePerJob(t *testing.T) {
	svc := newService(t, Options{Workers: 2})
	spec := Spec{Kind: KindCampaign, Tuples: 64, Seed: 1}
	runSpec(t, svc, spec)
	runSpec(t, svc, spec)
	reg := svc.rec.Registry()
	hits := counterValue(t, reg, obs.Name("jobs.cache_hits", "item", "result"))
	misses := counterValue(t, reg, obs.Name("jobs.cache_misses", "item", "result"))
	pct := reg.Gauge(obs.Name("jobs.cache_hit_pct", "item", "result")).Value()
	if hits != 1 || misses != 1 || pct != 50 {
		t.Errorf("result counters = %d hits, %d misses, %d%%; want 1, 1, 50%%", hits, misses, pct)
	}
}
