package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("c") != c {
		t.Error("Counter is not get-or-create")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", 1, 4, 16)
	for _, v := range []int64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 108 {
		t.Errorf("count/sum = %d/%d, want 5/108", h.Count(), h.Sum())
	}
	want := []Bucket{{Le: 1, N: 2}, {Le: 4, N: 1}, {Le: 16, N: 1}, {Le: math.MaxInt64, N: 1}}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if q := h.Quantile(0.5); q != 4 {
		t.Errorf("p50 = %d, want 4", q)
	}
	if q := h.Quantile(1); q != math.MaxInt64 {
		t.Errorf("p100 = %d, want +inf", q)
	}
	if m := h.Mean(); m != 108.0/5 {
		t.Errorf("mean = %v, want %v", m, 108.0/5)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	h := NewRegistry().Histogram("d")
	h.Observe(3)
	if h.Count() != 1 {
		t.Fatal("default-bounds histogram dropped an observation")
	}
	if q := h.Quantile(0.5); q != 4 {
		t.Errorf("p50 = %d, want 4 (doubling bounds)", q)
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(1, 5)
	want := []int64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("shared").Inc()
				reg.Histogram("hist").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := reg.Histogram("hist").Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestSnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z")
	reg.Gauge("a")
	reg.Histogram("m")
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	// Every recording method must be a no-op, not a panic, on nil: the
	// disabled-path contract that lets producers hold a possibly-nil field.
	r.Span(1, 1, "s", "c", 0, 5, nil)
	r.Instant(1, 1, "i", "c", 0, nil)
	r.Sample(1, "n", 0, map[string]any{"v": 1})
	r.SetMaxEvents(5)
	if r.Process("p") != 0 || r.NextTID() != 0 || r.Now() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder returned non-zero ids")
	}
	if r.Registry() != nil || r.Events() != nil {
		t.Error("nil recorder returned non-nil registry/events")
	}
}

func TestRecorderCap(t *testing.T) {
	r := NewRecorder()
	r.SetMaxEvents(2)
	for i := 0; i < 5; i++ {
		r.Instant(1, 1, "e", "", int64(i), nil)
	}
	if got := len(r.Events()); got != 2 {
		t.Errorf("events = %d, want 2 (capped)", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
}

func TestProcessGetOrCreate(t *testing.T) {
	r := NewRecorder()
	p1 := r.Process("engine")
	p2 := r.Process("engine")
	p3 := r.Process("faultsim")
	if p1 != p2 {
		t.Errorf("same name minted distinct pids %d, %d", p1, p2)
	}
	if p3 == p1 {
		t.Error("distinct names share a pid")
	}
	// Exactly one process_name metadata event per process.
	meta := 0
	for _, e := range r.Events() {
		if e.Ph == "M" && e.Name == "process_name" {
			meta++
		}
	}
	if meta != 2 {
		t.Errorf("process_name metadata events = %d, want 2", meta)
	}
}
