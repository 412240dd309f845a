package simprof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"swapcodes/internal/obs"
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

func TestLaunchProfDerived(t *testing.T) {
	var lp LaunchProf
	lp.Reset(2)
	if got := lp.LoadImbalance(); got != 1 {
		t.Fatalf("empty imbalance = %v, want 1", got)
	}
	lp.Partitions[0].Issued = 300
	lp.Partitions[1].Issued = 100
	if got := lp.LoadImbalance(); got != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5 (max 300 / mean 200)", got)
	}
	lp.ObserveLogs(0, 5, 2, 1)
	lp.ObserveLogs(0, 3, 4, 0)
	p := &lp.Partitions[0]
	if p.PeakWlog != 5 || p.PeakSlog != 4 || p.PeakEvents != 1 {
		t.Fatalf("peaks = %d/%d/%d, want 5/4/1", p.PeakWlog, p.PeakSlog, p.PeakEvents)
	}
	if p.WlogTotal != 8 || p.SlogTotal != 6 || p.EventsTotal != 1 {
		t.Fatalf("totals = %d/%d/%d, want 8/6/1", p.WlogTotal, p.SlogTotal, p.EventsTotal)
	}

	// Reset must wipe partition state for reuse.
	lp.Reset(2)
	if lp.Partitions[0].Issued != 0 || lp.Partitions[0].PeakWlog != 0 {
		t.Fatal("Reset left partition state behind")
	}
	if !reflect.DeepEqual(lp.Partitions[1], PartitionProf{Index: 1}) {
		t.Fatalf("Reset left state in partition 1: %+v", lp.Partitions[1])
	}
}

func TestEmitMetrics(t *testing.T) {
	var lp LaunchProf
	lp.Reset(2)
	lp.Kernel, lp.Scheme = "mm", "Swap-ECC"
	lp.Rounds, lp.IdleRounds, lp.SkippedCycles = 100, 40, 350
	lp.Partitions[0].Issued = 60
	lp.Partitions[0].WarpsAssigned = 8
	lp.Partitions[0].StallDeps = 10
	lp.Partitions[0].Parked = 2
	lp.Partitions[1].Issued = 40
	lp.ObserveLogs(1, 3, 0, 1)

	reg := obs.NewRegistry()
	lp.EmitMetrics(reg)
	want := map[string]int64{
		`simprof.rounds{kernel="mm",scheme="Swap-ECC"}`:                                                 100,
		`simprof.idle_rounds{kernel="mm",scheme="Swap-ECC"}`:                                            40,
		`simprof.skipped_cycles{kernel="mm",scheme="Swap-ECC"}`:                                         350,
		`simprof.partition_issued{kernel="mm",partition="p0",scheme="Swap-ECC"}`:                        60,
		`simprof.partition_issued{kernel="mm",partition="p1",scheme="Swap-ECC"}`:                        40,
		`simprof.partition_warps{kernel="mm",partition="p0",scheme="Swap-ECC"}`:                         8,
		`simprof.partition_parked{kernel="mm",partition="p0",scheme="Swap-ECC"}`:                        2,
		`simprof.partition_stall_rounds{kernel="mm",partition="p0",reason="deps",scheme="Swap-ECC"}`:    10,
		`simprof.partition_deferred_entries{kernel="mm",log="wlog",partition="p1",scheme="Swap-ECC"}`:   3,
		`simprof.partition_deferred_entries{kernel="mm",log="events",partition="p1",scheme="Swap-ECC"}`: 1,
	}
	got := map[string]int64{}
	for _, m := range reg.Snapshot() {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	// imbalance = max 60 / mean 50 = 1.2 → 120 in integer percent.
	if g := reg.Gauge(`simprof.load_imbalance_pct{kernel="mm",scheme="Swap-ECC"}`).Value(); g != 120 {
		t.Errorf("imbalance gauge = %d, want 120", g)
	}
	h := reg.Histogram(`simprof.partition_deferred_peak{kernel="mm",scheme="Swap-ECC"}`)
	if h.Count() != 6 { // 2 partitions x 3 logs
		t.Errorf("deferred-peak histogram count = %d, want 6", h.Count())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindIssue: "issue", KindStall: "stall", KindPark: "park",
		KindSkip: "skip", KindMerge: "merge", KindViolate: "violate",
		Kind(0): "kind(0)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
