// Package simprof is the SM's flight recorder (DESIGN.md §14): every
// scheduler partition and the merge barrier log their recent decisions into
// rings, so that a failing launch (invariant trip, differential mismatch,
// deadlock, panic) can be replayed deterministically from a JSONL "black
// box" bundle. Rings that hold a whole launch are also its observation
// record.
//
// The package deliberately does not import internal/sm (sm imports it); the
// machine feeds FlightRecorder rings through narrow value types defined here.
package simprof

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind classifies one flight-recorder decision.
type Kind uint8

const (
	// KindIssue: a warp issued one instruction (Warp, PC set), logged after
	// it executed; Aux is 1 when the instruction retired the warp.
	KindIssue Kind = iota + 1
	// KindStall: a partition issued nothing this round (Reason set, Aux is
	// the partition's earliest wake cycle).
	KindStall
	// KindPark: a warp was atomHold-parked after issuing an ATOM.
	KindPark
	// KindSkip: the merge barrier batch-skipped idle cycles (Aux is the
	// skipped delta, Reason the charged stall reason).
	KindSkip
	// KindMerge: one merge barrier committed (Aux is the round's issued
	// instruction count).
	KindMerge
	// KindViolate: a dynamic invariant recorded a violation at this cycle.
	KindViolate
	// KindResident: a warp became resident at its CTA's launch (Warp set).
	KindResident
	// KindDue: a register read flagged a pipeline DUE (Warp, PC set; Aux is
	// reg<<8 | lane).
	KindDue
	// KindTrap: a BPT trap fired (Warp, PC set).
	KindTrap
)

var kindNames = map[Kind]string{
	KindIssue: "issue", KindStall: "stall", KindPark: "park",
	KindSkip: "skip", KindMerge: "merge", KindViolate: "violate",
	KindResident: "resident", KindDue: "due", KindTrap: "trap",
}

// String names the kind for human consumption of bundles.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Decision is one recorded scheduler decision. Fixed-size and pointer-free
// so ring writes are a single struct store; the short JSON keys keep bundles
// compact (a bundle holds thousands of these).
type Decision struct {
	Cycle  int64 `json:"c,omitempty"`
	Warp   int32 `json:"w,omitempty"`  // global warp id; -1 for partition/machine events
	PC     int32 `json:"pc,omitempty"` // static pc at issue; -1 otherwise
	Kind   Kind  `json:"k,omitempty"`
	Reason uint8 `json:"r,omitempty"` // stall reason ordinal (sm's stallReason)
	Aux    int64 `json:"x,omitempty"` // kind-specific payload (see Kind docs)
}

// Ring is a fixed-capacity decision ring. Add is a store and an increment —
// the "near-zero cost when armed" budget — and is single-writer by
// construction: each partition owns its ring during phase A, the merge ring
// belongs to the barrier. A ring larger than DefaultRingCapacity starts at
// that size and doubles as it fills, so a ring sized for a whole launch
// costs the memory the launch logs, not its capacity.
type Ring struct {
	buf []Decision
	max int    // capacity buf grows to
	n   uint64 // total ever appended; buf index is n & mask
}

func newRing(capacity int) *Ring {
	// Round up to a power of two so the index is a mask, not a modulo.
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Ring{buf: make([]Decision, min(c, DefaultRingCapacity)), max: c}
}

// Add appends one decision, overwriting the oldest once full.
func (r *Ring) Add(d Decision) {
	if r.n == uint64(len(r.buf)) && len(r.buf) < r.max {
		r.buf = append(r.buf, make([]Decision, len(r.buf))...)
	}
	r.buf[r.n&uint64(len(r.buf)-1)] = d
	r.n++
}

// Lost returns how many decisions the ring overwrote: zero means Snapshot
// holds every decision ever added.
func (r *Ring) Lost() uint64 { return r.n - min(r.n, uint64(len(r.buf))) }

// Snapshot returns the retained decisions oldest-first.
func (r *Ring) Snapshot() []Decision {
	if r.n <= uint64(len(r.buf)) {
		return append([]Decision(nil), r.buf[:r.n]...)
	}
	head := int(r.n & uint64(len(r.buf)-1))
	out := make([]Decision, 0, len(r.buf))
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// Meta identifies a failing launch well enough to replay it: the workload
// and scheme select the exact kernel (compilation is deterministic), Config
// carries the full sm.Config the launch ran under (marshaled by the sm side;
// this package cannot import sm), and Reason/Cycle pin the failure.
type Meta struct {
	// Workload is the workloads registry name (callers annotate it before
	// launch; empty for hand-built kernels, which tests reconstruct
	// themselves).
	Workload string          `json:"workload,omitempty"`
	Kernel   string          `json:"kernel"`
	Scheme   string          `json:"scheme"`
	Seed     int64           `json:"seed,omitempty"`
	Cycle    int64           `json:"cycle"`
	Reason   string          `json:"reason"`
	Config   json.RawMessage `json:"config,omitempty"`
}

// DefaultRingCapacity bounds each partition's retained decisions. At the
// default IssuePerSched=2 this is ≥ 2048 rounds of history per partition.
const DefaultRingCapacity = 4096

// FlightRecorder is the black box: one decision ring per partition plus a
// merge-barrier ring, armed by setting sm.GPU.Flight. The per-decision cost
// is one bounds-free struct store (see BenchmarkSMFlightArmed).
type FlightRecorder struct {
	perPart int

	mu     sync.Mutex
	parts  []*Ring
	merge  *Ring
	meta   Meta
	failed bool
}

// NewFlightRecorder returns a recorder retaining perPartition decisions per
// partition ring (0 selects DefaultRingCapacity). Partition rings are
// created on first request so the recorder needs no advance knowledge of
// the scheduler count.
func NewFlightRecorder(perPartition int) *FlightRecorder {
	if perPartition <= 0 {
		perPartition = DefaultRingCapacity
	}
	return &FlightRecorder{perPart: perPartition, merge: newRing(perPartition)}
}

// Reset empties the recorder for another launch: every ring keeps its
// buffer (no allocation, no zeroing; a ring reads only what it logged
// since), and the annotation and any failure are cleared.
func (f *FlightRecorder) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.parts {
		r.n = 0
	}
	f.merge.n = 0
	f.meta = Meta{}
	f.failed = false
}

// Partition returns partition i's ring, growing the set as needed. Called
// once per launch per partition (the machine caches the pointer); safe for
// concurrent setup.
func (f *FlightRecorder) Partition(i int) *Ring {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.parts) <= i {
		f.parts = append(f.parts, newRing(f.perPart))
	}
	return f.parts[i]
}

// MergeRing returns the merge barrier's ring.
func (f *FlightRecorder) MergeRing() *Ring { return f.merge }

// Annotate stamps launch identity known only to the caller (the machine
// fills the rest at failure time). Call before Launch.
func (f *FlightRecorder) Annotate(workload string, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.meta.Workload = workload
	f.meta.Seed = seed
}

// Fail marks the launch failed and records its identity. The first failure
// wins; later calls (e.g. a harness wrapping an error the machine already
// stamped) are ignored. cfg is marshaled as the replay configuration —
// the sm side passes its Config value.
func (f *FlightRecorder) Fail(kernel, scheme string, cycle int64, cfg any, reason string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed {
		return
	}
	f.failed = true
	f.meta.Kernel = kernel
	f.meta.Scheme = scheme
	f.meta.Cycle = cycle
	f.meta.Reason = reason
	if cfg != nil {
		if b, err := json.Marshal(cfg); err == nil {
			f.meta.Config = b
		}
	}
}

// Failed reports whether Fail was called.
func (f *FlightRecorder) Failed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

// Meta returns the failure identity recorded by Fail/Annotate.
func (f *FlightRecorder) Meta() Meta {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta
}

// bundleLine is one JSONL line of a bundle. Decision lines inline the
// Decision fields next to the partition index (-1 = merge ring).
type bundleLine struct {
	Type string `json:"type"` // "meta", "decision", "end"
	Meta *Meta  `json:"meta,omitempty"`
	Part int    `json:"part,omitempty"`
	Decision
	Count int `json:"count,omitempty"` // on "end": total decision lines
}

// WriteBundle emits the black box as JSONL: a meta header, every retained
// decision oldest-first (per-partition rings in index order, then the merge
// ring), and an end line carrying the decision count as a truncation check.
func (f *FlightRecorder) WriteBundle(w io.Writer) error {
	f.mu.Lock()
	meta := f.meta
	parts := make([][]Decision, len(f.parts))
	for i, r := range f.parts {
		parts[i] = r.Snapshot()
	}
	merge := f.merge.Snapshot()
	f.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(bundleLine{Type: "meta", Meta: &meta}); err != nil {
		return err
	}
	n := 0
	emit := func(part int, ds []Decision) error {
		for _, d := range ds {
			n++
			if err := enc.Encode(bundleLine{Type: "decision", Part: part, Decision: d}); err != nil {
				return err
			}
		}
		return nil
	}
	for i, ds := range parts {
		if err := emit(i, ds); err != nil {
			return err
		}
	}
	if err := emit(-1, merge); err != nil {
		return err
	}
	if err := enc.Encode(bundleLine{Type: "end", Count: n}); err != nil {
		return err
	}
	return bw.Flush()
}

// Bundle returns the JSONL bundle as bytes.
func (f *FlightRecorder) Bundle() []byte {
	var buf bytes.Buffer
	_ = f.WriteBundle(&buf) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// Bundle is a parsed black box.
type Bundle struct {
	Meta       Meta
	Partitions [][]Decision
	Merge      []Decision
}

// MaxBundlePartitions bounds the partition index a bundle line may name. A
// partition is a warp scheduler, and an SM has a handful; without the bound
// one line naming a huge index would make ReadBundle allocate a stream for
// every partition below it.
const MaxBundlePartitions = 1024

// ReadBundle parses a JSONL bundle, validating the end-line count so a
// truncated dump is reported rather than silently replayed short.
func ReadBundle(r io.Reader) (*Bundle, error) {
	b := &Bundle{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sawMeta, sawEnd, n := false, false, 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var bl bundleLine
		if err := json.Unmarshal(line, &bl); err != nil {
			return nil, fmt.Errorf("simprof: bundle line %d: %w", n+1, err)
		}
		switch bl.Type {
		case "meta":
			if bl.Meta != nil {
				b.Meta = *bl.Meta
			}
			sawMeta = true
		case "decision":
			n++
			if bl.Part < 0 {
				b.Merge = append(b.Merge, bl.Decision)
				continue
			}
			if bl.Part >= MaxBundlePartitions {
				return nil, fmt.Errorf("simprof: bundle line %d: partition %d past the bound of %d", n, bl.Part, MaxBundlePartitions)
			}
			for len(b.Partitions) <= bl.Part {
				b.Partitions = append(b.Partitions, nil)
			}
			b.Partitions[bl.Part] = append(b.Partitions[bl.Part], bl.Decision)
		case "end":
			sawEnd = true
			if bl.Count != n {
				return nil, fmt.Errorf("simprof: bundle truncated: end line says %d decisions, read %d", bl.Count, n)
			}
		default:
			return nil, fmt.Errorf("simprof: unknown bundle line type %q", bl.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMeta || !sawEnd {
		return nil, fmt.Errorf("simprof: bundle missing %s", map[bool]string{true: "end line", false: "meta line"}[sawMeta])
	}
	return b, nil
}
