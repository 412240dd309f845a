package simprof

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRingWrap(t *testing.T) {
	r := newRing(4)
	if len(r.Snapshot()) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := int64(1); i <= 6; i++ {
		r.Add(Decision{Cycle: i, Kind: KindIssue})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d entries, want capacity 4", len(got))
	}
	for i, d := range got {
		if want := int64(3 + i); d.Cycle != want {
			t.Fatalf("entry %d has cycle %d, want %d (oldest-first)", i, d.Cycle, want)
		}
	}
}

func TestRingCapacityRoundsUp(t *testing.T) {
	r := newRing(5)
	for i := 0; i < 100; i++ {
		r.Add(Decision{Cycle: int64(i)})
	}
	if n := len(r.Snapshot()); n != 8 {
		t.Fatalf("capacity 5 should round to 8, ring holds %d", n)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Annotate("lavaMD", 7)
	fr.Partition(0).Add(Decision{Cycle: 1, Warp: 3, PC: 10, Kind: KindIssue})
	fr.Partition(1).Add(Decision{Cycle: 2, Warp: -1, PC: -1, Kind: KindStall, Reason: 2, Aux: 9})
	fr.MergeRing().Add(Decision{Cycle: 2, Warp: -1, PC: -1, Kind: KindSkip, Aux: 7})
	fr.Fail("lavaMD", "Swap-ECC", 1234, struct{ MaxCycles int }{99}, "boom")

	if !fr.Failed() {
		t.Fatal("Fail did not mark the recorder failed")
	}
	raw := fr.Bundle()
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	m := b.Meta
	if m.Workload != "lavaMD" || m.Kernel != "lavaMD" || m.Scheme != "Swap-ECC" ||
		m.Seed != 7 || m.Cycle != 1234 || m.Reason != "boom" {
		t.Fatalf("meta round-trip mismatch: %+v", m)
	}
	if !strings.Contains(string(m.Config), "99") {
		t.Fatalf("config not embedded: %s", m.Config)
	}
	if len(b.Partitions) != 2 || len(b.Partitions[0]) != 1 || len(b.Partitions[1]) != 1 {
		t.Fatalf("partition streams mismatch: %+v", b.Partitions)
	}
	if got := b.Partitions[1][0]; got.Kind != KindStall || got.Reason != 2 || got.Aux != 9 {
		t.Fatalf("partition decision mismatch: %+v", got)
	}
	if len(b.Merge) != 1 || b.Merge[0].Kind != KindSkip || b.Merge[0].Aux != 7 {
		t.Fatalf("merge stream mismatch: %+v", b.Merge)
	}
	// The bundle must be byte-stable: same recorder, same bytes.
	if !bytes.Equal(raw, fr.Bundle()) {
		t.Fatal("Bundle() not deterministic")
	}
}

func TestBundleFirstFailureWins(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Fail("k", "s", 10, nil, "first")
	fr.Fail("k", "s", 20, nil, "second")
	if m := fr.Meta(); m.Reason != "first" || m.Cycle != 10 {
		t.Fatalf("second Fail overwrote the first: %+v", m)
	}
}

func TestReadBundleTruncated(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Partition(0).Add(Decision{Cycle: 1, Kind: KindIssue})
	fr.Fail("k", "s", 10, nil, "r")
	raw := fr.Bundle()
	// Drop the trailing end line: the reader must refuse the bundle.
	cut := bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n')
	if _, err := ReadBundle(bytes.NewReader(raw[:cut+1])); err == nil {
		t.Fatal("truncated bundle accepted")
	}
	if _, err := ReadBundle(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty bundle accepted")
	}
}

// TestRingLost: a ring reports how many decisions it overwrote, so a reader
// that needs every decision can tell a short stream from a whole one.
func TestRingLost(t *testing.T) {
	r := newRing(4)
	for i := int64(1); i <= 4; i++ {
		r.Add(Decision{Cycle: i})
	}
	if r.Lost() != 0 {
		t.Fatalf("full ring lost %d decisions, want 0", r.Lost())
	}
	r.Add(Decision{Cycle: 5})
	r.Add(Decision{Cycle: 6})
	if r.Lost() != 2 {
		t.Fatalf("ring lost %d decisions, want 2", r.Lost())
	}
}

// TestRingGrows: a ring past DefaultRingCapacity grows as it fills, keeps
// every decision in order until its capacity, then wraps like any ring.
func TestRingGrows(t *testing.T) {
	const c = 4 * DefaultRingCapacity
	r := newRing(c)
	if len(r.buf) != DefaultRingCapacity {
		t.Fatalf("fresh ring holds %d slots, want %d", len(r.buf), DefaultRingCapacity)
	}
	for i := int64(0); i < c+3; i++ {
		r.Add(Decision{Cycle: i})
	}
	got := r.Snapshot()
	if len(got) != c || r.Lost() != 3 {
		t.Fatalf("ring holds %d decisions and lost %d, want %d and 3", len(got), r.Lost(), c)
	}
	for i, d := range got {
		if d.Cycle != int64(i+3) {
			t.Fatalf("entry %d has cycle %d, want %d", i, d.Cycle, i+3)
		}
	}
}

// TestReadBundleBoundsPartitions: a line naming a partition past
// MaxBundlePartitions is refused rather than allocated for.
func TestReadBundleBoundsPartitions(t *testing.T) {
	if _, err := ReadBundle(strings.NewReader(hugePartitionBundle)); err == nil {
		t.Fatal("bundle naming partition 100000 accepted")
	}
	ok := strings.Replace(hugePartitionBundle, "100000", fmt.Sprint(MaxBundlePartitions-1), 1)
	b, err := ReadBundle(strings.NewReader(ok))
	if err != nil || len(b.Partitions) != MaxBundlePartitions {
		t.Fatalf("bundle naming the last partition: %v, %d partitions", err, len(b.Partitions))
	}
}

// hugePartitionBundle is a three-line bundle whose one decision names
// partition 100000.
const hugePartitionBundle = `{"type":"meta","meta":{"kernel":"k","scheme":"s","cycle":0,"reason":"r"}}
{"type":"decision","part":100000,"c":1,"k":1}
{"type":"end","count":1}
`

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindIssue: "issue", KindStall: "stall", KindPark: "park",
		KindSkip: "skip", KindMerge: "merge", KindViolate: "violate",
		KindResident: "resident", KindDue: "due", KindTrap: "trap",
		Kind(0): "kind(0)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestResetClearsFailure: a reset recorder reports no failure and no
// identity, and its next failure is recorded as the first.
func TestResetClearsFailure(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Annotate("w", 3)
	f.Fail("k", "s", 10, nil, "first")
	f.Reset()
	if f.Failed() || !reflect.DeepEqual(f.Meta(), Meta{}) {
		t.Fatalf("after Reset: failed %v, meta %+v", f.Failed(), f.Meta())
	}
	f.Fail("k2", "s2", 20, nil, "second")
	if m := f.Meta(); m.Reason != "second" || m.Cycle != 20 {
		t.Fatalf("failure after Reset recorded as %+v", m)
	}
}
