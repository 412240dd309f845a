// Package obs is the zero-dependency observability layer of the simulator:
// typed atomic counters, gauges, and histograms registered in a Registry,
// plus a structured event Recorder that emits Chrome trace-event JSON
// (chrome://tracing / Perfetto compatible).
//
// The layer is built for hot loops. Instruments are lock-free after
// registration (plain atomic adds), and every producer guards its
// instrumentation behind a nil check on its *Recorder. The SM records
// nothing here while it runs: its series and timeline are derived after
// each launch from its flight recorder (harness.ObserveLaunch).
// Registration itself (Registry.Counter and friends) takes a mutex and is
// meant for cold paths: fetch instruments once at setup, not per event.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, resident warps, ...).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bound histogram with lock-free observation. Bounds
// are inclusive upper bounds in ascending order; one implicit +Inf bucket
// catches everything above the last bound.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = ExpBounds(1, 20) // 1, 2, 4, ... 2^19
	}
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. The bucket scan is linear: bound lists are
// short (tens of entries) and the loop is branch-predictor friendly, which
// beats a binary search at this size.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile: the bound of the
// first bucket whose cumulative count reaches q. q is clamped to [0, 1];
// q=0 reports the first non-empty bucket's bound and q=1 the last
// non-empty bucket's bound, so the result never strays outside the
// observed bucket range. The +Inf bucket reports math.MaxInt64.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := quantileTarget(q, n)
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.MaxInt64
		}
	}
	return math.MaxInt64
}

// quantileTarget maps a quantile onto a 1-based observation rank. Clamping
// q (and the rank) keeps out-of-range inputs inside the observed data:
// without the upper clamp, q slightly above 1 (a caller computing 1+eps)
// would walk past the last non-empty bucket and report +Inf even when every
// observation sits in a finite bucket.
func quantileTarget(q float64, n int64) int64 {
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1 // also handles q <= 0 and NaN
	}
	if target > n {
		target = n
	}
	return target
}

// Buckets returns the bucket snapshot (upper bound, count). The final
// bucket's bound is math.MaxInt64, standing in for +Inf.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.buckets))
	for i := range h.buckets {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out[i] = Bucket{Le: le, N: h.buckets[i].Load()}
	}
	return out
}

// Bucket is one histogram bucket: count of observations <= Le (Le ==
// math.MaxInt64 marks the +Inf bucket).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// ExpBounds returns n exponentially doubling bounds starting at first:
// first, 2*first, 4*first, ...
func ExpBounds(first int64, n int) []int64 {
	if first < 1 {
		first = 1
	}
	out := make([]int64, 0, n)
	for v := first; len(out) < n; v *= 2 {
		out = append(out, v)
	}
	return out
}

// DefaultMaxLabelValues caps the distinct values one label key of one metric
// family may take before further values collapse into LabelOverflow. The
// largest legitimate family today is {kernel} x {scheme} (15 workloads, 11
// schemes); partition labels are bounded by Config.Schedulers. The cap
// exists for the unbounded inputs — user-supplied tenants, job IDs leaking
// into a label — which would otherwise grow the registry (and every
// /metrics scrape) without limit.
const DefaultMaxLabelValues = 256

// LabelOverflow replaces label values past the per-family cardinality cap.
// Drops are counted in the plain "obs.labels_dropped" counter.
const LabelOverflow = "_overflow"

// Registry holds named instruments. Lookup is get-or-create, so independent
// layers (sm, faultsim, engine) share instruments by name without wiring
// ceremony. All methods are safe for concurrent use; instruments returned
// are safe for lock-free concurrent updates.
//
// Labeled names (the obs.Name convention) are admitted through a
// cardinality guard: per metric family (base name) and label key, at most
// MaxLabelValues distinct values register; later values are rewritten to
// LabelOverflow and tallied in obs.labels_dropped. The guard runs only on
// first registration of a name — established series pay a map hit, nothing
// more.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// MaxLabelValues overrides DefaultMaxLabelValues when > 0. Set it before
	// instruments register; it is read under the registry mutex.
	MaxLabelValues int
	// labelSeen tracks distinct values per (family base, label key).
	labelSeen map[string]map[string]struct{}
	dropped   *Counter // obs.labels_dropped, created on first drop
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// admitLocked enforces the per-family label-cardinality cap on a name not
// yet registered, returning the (possibly rewritten) name to register under.
// Caller holds r.mu.
func (r *Registry) admitLocked(name string) string {
	base, labels := ParseName(name)
	if len(labels) == 0 {
		return name
	}
	max := r.MaxLabelValues
	if max <= 0 {
		max = DefaultMaxLabelValues
	}
	if r.labelSeen == nil {
		r.labelSeen = make(map[string]map[string]struct{})
	}
	rewritten := false
	for i := range labels {
		fam := base + "\x00" + labels[i].Key
		seen := r.labelSeen[fam]
		if seen == nil {
			seen = make(map[string]struct{})
			r.labelSeen[fam] = seen
		}
		if _, ok := seen[labels[i].Value]; ok {
			continue
		}
		if len(seen) < max {
			seen[labels[i].Value] = struct{}{}
			continue
		}
		labels[i].Value = LabelOverflow
		rewritten = true
	}
	if !rewritten {
		return name
	}
	if r.dropped == nil {
		r.dropped = &Counter{}
		r.counters["obs.labels_dropped"] = r.dropped
	}
	r.dropped.Inc()
	return NameL(base, labels)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		name = r.admitLocked(name)
		if c, ok = r.counters[name]; ok {
			return c
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		name = r.admitLocked(name)
		if g, ok = r.gauges[name]; ok {
			return g
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds). With no bounds it defaults to
// doubling buckets 1..2^19.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		name = r.admitLocked(name)
		if h, ok = r.hists[name]; ok {
			return h
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Metric is one instrument's point-in-time value, the unit of export.
// Counters and gauges carry Value; histograms carry Count, Sum, and Buckets.
type Metric struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"` // "counter", "gauge", or "histogram"
	Value   int64    `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures every registered instrument, sorted by (type, name) so
// exports are deterministic.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Type: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name, Type: "histogram",
			Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Type < out[j].Type
	})
	return out
}
