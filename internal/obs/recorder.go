package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event is one Chrome trace event (the "JSON Array Format" consumed by
// chrome://tracing and Perfetto). Ph selects the event kind: "X" complete
// (span with duration), "i" instant, "C" counter sample, "M" metadata.
// Timestamps and durations are in trace microseconds — wall microseconds
// for engine-level events, simulated cycles for SM-level events (one cycle
// renders as one microsecond; DESIGN.md section 8).
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// DefaultMaxEvents bounds a recorder's buffer (~100 bytes/event in memory;
// events past the cap are counted in Dropped, never silently lost).
const DefaultMaxEvents = 1 << 20

// DefaultSamplePeriod is the cycle window between SM counter samples.
const DefaultSamplePeriod = 256

// Recorder accumulates structured events for one run and owns the Registry
// its producers register metrics in. The zero value is not usable; call
// NewRecorder. All recording methods are safe for concurrent use and are
// no-ops on a nil receiver, so call sites may hold a possibly-nil *Recorder
// and pay only the nil check when observability is disabled.
type Recorder struct {
	// SamplePeriod is the cycle window between periodic SM counter samples
	// (occupancy, issue slots, stall cycles). Set before the run starts;
	// DefaultSamplePeriod when zero.
	SamplePeriod int64

	mu      sync.Mutex
	events  []Event
	max     int
	dropped int64
	pids    map[string]int64
	nextPID int64
	nextTID int64
	epoch   time.Time
	reg     *Registry
}

// NewRecorder returns a recorder with the default event cap and a fresh
// registry.
func NewRecorder() *Recorder {
	return &Recorder{
		SamplePeriod: DefaultSamplePeriod,
		max:          DefaultMaxEvents,
		pids:         make(map[string]int64),
		nextPID:      1,
		epoch:        time.Now(),
		reg:          NewRegistry(),
	}
}

// SetMaxEvents overrides the event cap (call before recording).
func (r *Recorder) SetMaxEvents(n int) {
	if r == nil || n < 1 {
		return
	}
	r.mu.Lock()
	r.max = n
	r.mu.Unlock()
}

// Registry returns the recorder's metric registry (nil on a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Now returns the wall-clock trace timestamp: microseconds since the
// recorder was created.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Microseconds()
}

// Process returns the pid for a named trace process, minting it (and
// emitting the process_name metadata event) on first use. Layers share
// processes by name: "engine", "faultsim", "sm:<kernel>", ...
func (r *Recorder) Process(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	pid, ok := r.pids[name]
	if !ok {
		pid = r.nextPID
		r.nextPID++
		r.pids[name] = pid
		r.append(Event{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name}})
	}
	r.mu.Unlock()
	return pid
}

// UniqueProcess mints a fresh pid even when the name is taken, suffixing
// "#2", "#3", ... — for producers whose instances must not share timeline
// rows (e.g. repeated launches of a same-named kernel).
func (r *Recorder) UniqueProcess(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	unique := name
	for n := 2; ; n++ {
		if _, taken := r.pids[unique]; !taken {
			break
		}
		unique = fmt.Sprintf("%s#%d", name, n)
	}
	r.mu.Unlock()
	return r.Process(unique)
}

// NextTID allocates a fresh thread id, for producers that want each span on
// its own timeline row (parallel shards, workers).
func (r *Recorder) NextTID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextTID++
	tid := r.nextTID
	r.mu.Unlock()
	return tid
}

// Span records a complete ("X") event covering [ts, ts+dur).
func (r *Recorder) Span(pid, tid int64, name, cat string, ts, dur int64, args map[string]any) {
	if r == nil {
		return
	}
	if dur < 1 {
		dur = 1 // zero-length spans are invisible in viewers
	}
	r.add(Event{Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid, Args: args})
}

// Instant records an instant ("i") event at ts.
func (r *Recorder) Instant(pid, tid int64, name, cat string, ts int64, args map[string]any) {
	if r == nil {
		return
	}
	r.add(Event{Name: name, Cat: cat, Ph: "i", TS: ts, PID: pid, TID: tid, Args: args})
}

// Sample records a counter ("C") event: the named series' values at ts,
// rendered by trace viewers as a stacked area chart over time.
func (r *Recorder) Sample(pid int64, name string, ts int64, values map[string]any) {
	if r == nil {
		return
	}
	r.add(Event{Name: name, Ph: "C", TS: ts, PID: pid, Args: values})
}

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	r.append(e)
	r.mu.Unlock()
}

// append assumes r.mu is held.
func (r *Recorder) append(e Event) {
	if len(r.events) >= r.max {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Dropped reports how many events were discarded after the buffer cap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
