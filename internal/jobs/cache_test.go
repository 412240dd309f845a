package jobs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
