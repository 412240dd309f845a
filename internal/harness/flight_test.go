package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

func TestSchemeByStamp(t *testing.T) {
	cases := map[string]compiler.Scheme{
		// CLI names.
		"baseline": compiler.Baseline,
		"swap-ecc": compiler.SwapECC,
		// Compiler display stamps (what isa.Kernel.Scheme carries).
		"Baseline":   compiler.Baseline,
		"Swap-ECC":   compiler.SwapECC,
		"SW-Dup":     compiler.SWDup,
		"Pre AddSub": compiler.SwapPredictAddSub,
		// Unstamped kernels ran un-transformed.
		"":     compiler.Baseline,
		"none": compiler.Baseline,
	}
	for stamp, want := range cases {
		got, err := SchemeByStamp(stamp)
		if err != nil || got != want {
			t.Errorf("SchemeByStamp(%q) = %v, %v; want %v", stamp, got, err, want)
		}
	}
	if _, err := SchemeByStamp("no-such-scheme"); err == nil {
		t.Error("unknown stamp accepted")
	}
}

// failingBundle produces a real black box: lavaMD under Swap-ECC with a
// cycle budget below its true cycle count.
func failingBundle(t *testing.T) (*simprof.FlightRecorder, error) {
	t.Helper()
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	k, err := compiler.Apply(w.Kernel, compiler.SwapECC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sm.DefaultConfig()
	cfg.MaxCycles = 2000
	g := w.NewGPU(cfg)
	fr := simprof.NewFlightRecorder(0)
	fr.Annotate(w.Name, 0)
	g.Flight = fr
	_, lerr := g.Launch(k)
	return fr, lerr
}

// TestReplayFlightReproduces is the end-to-end black-box contract: a
// captured failure replays from nothing but the bundle bytes, fails at the
// same cycle with the same error, and re-records bit-identical decision
// streams.
func TestReplayFlightReproduces(t *testing.T) {
	fr, lerr := failingBundle(t)
	if lerr == nil || !fr.Failed() {
		t.Fatal("forced failure did not trip")
	}
	raw := fr.Bundle()
	b, err := simprof.ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayFlight(context.Background(), b)
	if err != nil {
		t.Fatalf("ReplayFlight: %v", err)
	}
	if rep.Err == nil {
		t.Fatal("replay did not reproduce the failure")
	}
	if rep.Err.Error() != lerr.Error() {
		t.Fatalf("replay error %q, original %q", rep.Err, lerr)
	}
	if !rep.Recorder.Failed() {
		t.Fatal("replay recorder not stamped")
	}
	om, rm := b.Meta, rep.Recorder.Meta()
	if rm.Cycle != om.Cycle || rm.Reason != om.Reason ||
		rm.Kernel != om.Kernel || rm.Scheme != om.Scheme {
		t.Fatalf("replay failure point %+v, original %+v", rm, om)
	}
	rb, err := simprof.ReadBundle(bytes.NewReader(rep.Recorder.Bundle()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rb.Partitions, b.Partitions) {
		t.Error("replay partition decision streams diverge from the original")
	}
	if !reflect.DeepEqual(rb.Merge, b.Merge) {
		t.Error("replay merge decision stream diverges from the original")
	}
}

// TestReplayFlightRetiredWorkerFields: bundles written while the SM still
// had a phase-A worker count carry it twice — "workers" in the meta and
// "Workers" in the frozen sm.Config. Such a bundle must still read and
// replay to the recorded failure point.
func TestReplayFlightRetiredWorkerFields(t *testing.T) {
	fr, lerr := failingBundle(t)
	if lerr == nil || !fr.Failed() {
		t.Fatal("forced failure did not trip")
	}
	raw := fr.Bundle()
	nl := bytes.IndexByte(raw, '\n')
	// Splice the retired fields in where the old encoder wrote them: meta
	// workers after scheme (seed 0 is omitted), config Workers after Verify.
	meta := strings.Replace(string(raw[:nl]), `"scheme":"Swap-ECC",`, `"scheme":"Swap-ECC","workers":4,`, 1)
	meta = strings.Replace(meta, `"Verify":false,`, `"Verify":false,"Workers":4,`, 1)
	if !strings.Contains(meta, `"workers":4`) || !strings.Contains(meta, `"Workers":4`) {
		t.Fatalf("meta line lacks the splice points: %s", raw[:nl])
	}
	old := append([]byte(meta), raw[nl:]...)

	b, err := simprof.ReadBundle(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("ReadBundle rejects a bundle with retired worker fields: %v", err)
	}
	rep, err := ReplayFlight(context.Background(), b)
	if err != nil {
		t.Fatalf("ReplayFlight: %v", err)
	}
	if rep.Err == nil || rep.Err.Error() != lerr.Error() {
		t.Fatalf("replay error %v, original %q", rep.Err, lerr)
	}
	if rm := rep.Recorder.Meta(); rm.Cycle != b.Meta.Cycle || rm.Reason != b.Meta.Reason {
		t.Fatalf("replay failed at (%d, %q), bundle recorded (%d, %q)",
			rm.Cycle, rm.Reason, b.Meta.Cycle, b.Meta.Reason)
	}
}

func TestReplayFlightRejectsAnonymousBundle(t *testing.T) {
	fr := simprof.NewFlightRecorder(8)
	fr.Fail("k", "Swap-ECC", 10, sm.DefaultConfig(), "r")
	b, err := simprof.ReadBundle(bytes.NewReader(fr.Bundle()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFlight(context.Background(), b); err == nil {
		t.Fatal("bundle without a workload identity accepted")
	}
}

func TestFlightWrap(t *testing.T) {
	base := errors.New("boom")
	if got := flightWrap(nil, "mm", compiler.SwapECC, base); got != base {
		t.Fatal("nil recorder should pass the error through")
	}
	idle := simprof.NewFlightRecorder(8)
	if got := flightWrap(idle, "mm", compiler.SwapECC, base); got != base {
		t.Fatal("un-failed recorder should pass the error through")
	}
	fr, lerr := failingBundle(t)
	wrapped := flightWrap(fr, "lavaMD", compiler.SwapECC, lerr)
	var fe *FlightError
	if !errors.As(wrapped, &fe) {
		t.Fatalf("expected *FlightError, got %T", wrapped)
	}
	if fe.Workload != "lavaMD" || fe.Scheme != "swap-ecc" || len(fe.Bundle) == 0 {
		t.Fatalf("FlightError fields: %+v", fe)
	}
	if !errors.Is(wrapped, lerr) {
		t.Fatal("FlightError does not unwrap to the launch error")
	}
}

// TestResetRecorderLogsLikeFreshOnes: two armed launches on one recorder,
// reset between them as launchCell resets a recorder it reuses, log the
// decision streams and write the bundle bytes of the same two launches on
// fresh recorders. The first launch overruns every ring and the second
// fills none, so a ring the reset missed would show in the second.
func TestResetRecorderLogsLikeFreshOnes(t *testing.T) {
	type logged struct {
		streams [][]simprof.Decision
		bundle  []byte
	}
	launch := func(fr *simprof.FlightRecorder, name string, s compiler.Scheme) logged {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k, err := compiler.Apply(w.Kernel, s)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sm.DefaultConfig()
		g := w.NewGPU(cfg)
		fr.Annotate(name, 0)
		g.Flight = fr
		if _, err := g.Launch(k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var l logged
		for i := 0; i < cfg.Schedulers; i++ {
			l.streams = append(l.streams, fr.Partition(i).Snapshot())
		}
		l.streams = append(l.streams, fr.MergeRing().Snapshot())
		l.bundle = fr.Bundle()
		return l
	}
	runs := []struct {
		name string
		s    compiler.Scheme
	}{{"lavaMD", compiler.SwapECC}, {"bfs", compiler.Baseline}}
	reused := simprof.NewFlightRecorder(0)
	for i, r := range runs {
		if i > 0 {
			reused.Reset()
		}
		got := launch(reused, r.name, r.s)
		want := launch(simprof.NewFlightRecorder(0), r.name, r.s)
		if !reflect.DeepEqual(got.streams, want.streams) {
			t.Errorf("launch %d (%s): reset recorder's decision streams differ from a fresh one's", i, r.name)
		}
		if !bytes.Equal(got.bundle, want.bundle) {
			t.Errorf("launch %d (%s): reset recorder's bundle differs from a fresh one's", i, r.name)
		}
	}
}
