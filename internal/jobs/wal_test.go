package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"swapcodes/internal/faultsim"
	"swapcodes/internal/gates"
)

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 0 || rep.Truncated != 0 {
		t.Fatalf("fresh replay = %+v", rep)
	}
	spec := Spec{Kind: KindCampaign, Tuples: 100, Seed: 7}
	if err := st.AppendJob("j1", spec, "0af7651916cd43dd8448eb211c80319c"); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState("j1", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	sum := &ShardSummary{Index: 3, Unit: 1, Shard: 2, UnitName: "imul",
		Injections: 512,
		SDC:        map[string]faultsim.Counts{"parity": {K: 4, N: 512}},
		Digest:     "abc"}
	sum.Severity[0] = faultsim.Counts{K: 100, N: 512}
	sum.Stats = faultsim.EvalStats{NetNodes: 322, Tuples: 512, EvalCounters: gates.EvalCounters{
		BaselineNodes: 2576, ConeNodes: 25000, SiteEvals: 520, EvalNodes: 2100}}
	if err := st.AppendShard("j1", sum); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob("j2", Spec{Kind: KindVerify}, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendState("j2", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult("j2", json.RawMessage(`{"kind":"verify"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 || rep.Truncated != 0 {
		t.Fatalf("replay = %d jobs, %d truncated", len(rep.Jobs), rep.Truncated)
	}
	j1 := rep.Jobs[0]
	if j1.ID != "j1" || j1.State != StateRunning || !reflect.DeepEqual(j1.Spec, spec) {
		t.Fatalf("j1 replay = %+v", j1)
	}
	if j1.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("j1 trace replay = %q", j1.TraceID)
	}
	got := j1.Shards[3]
	if got == nil || got.UnitName != "imul" || got.Severity[0] != sum.Severity[0] ||
		got.SDC["parity"] != sum.SDC["parity"] || got.Digest != "abc" || got.Stats != sum.Stats {
		t.Fatalf("shard replay = %+v", got)
	}
	j2 := rep.Jobs[1]
	if j2.State != StateDone || string(j2.Result) != `{"kind":"verify"}` {
		t.Fatalf("j2 replay = %+v", j2)
	}
}

// TestWALReplaysShardWithoutEvalNodes: a shard record written before
// EvalCounters gained EvalNodes replays with the field 0 and every other
// counter intact.
func TestWALReplaysShardWithoutEvalNodes(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob("j1", Spec{Kind: KindCampaign, Tuples: 100, Seed: 7}, ""); err != nil {
		t.Fatal(err)
	}
	stats := faultsim.EvalStats{NetNodes: 322, Tuples: 100, EvalCounters: gates.EvalCounters{
		BaselineNodes: 644, ConeNodes: 5000, SiteEvals: 104, EvalNodes: 420}}
	if err := st.AppendShard("j1", &ShardSummary{Index: 0, UnitName: "FxP-Add32", Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(raw), `,"EvalNodes":420`, "", 1)
	if legacy == string(raw) {
		t.Fatalf("no EvalNodes field in the shard record:\n%s", raw)
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := stats
	want.EvalNodes = 0
	if got := rep.Jobs[0].Shards[0]; got == nil || got.Stats != want {
		t.Fatalf("legacy shard replay = %+v, want stats %+v", got, want)
	}
}

// TestWALReplaysJobWithSMWorkers: a job record written while Spec still
// had sm_workers replays to the same spec and content address as one
// without it.
func TestWALReplaysJobWithSMWorkers(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindPerf}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob("j1", spec, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The old encoder wrote sm_workers between schemes and mem_model.
	schemes := `"schemes":["sw-dup","swap-ecc","pre-addsub","pre-mad"]`
	legacy := strings.Replace(string(raw), schemes, schemes+`,"sm_workers":4`, 1)
	if legacy == string(raw) {
		t.Fatalf("no schemes list in the job record:\n%s", raw)
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated != 0 || len(rep.Jobs) != 1 {
		t.Fatalf("legacy job record replay = %+v", rep)
	}
	got := rep.Jobs[0].Spec
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("legacy job spec = %+v, want %+v", got, spec)
	}
	if err := got.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got.Key() != perfKeyHex {
		t.Fatalf("legacy job key = %s, want %s", got.Key(), perfKeyHex)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob("j1", Spec{Kind: KindVerify}, ""); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate a SIGKILL mid-append: a torn, unparseable trailing line.
	path := filepath.Join(dir, "wal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"state","id":"j1","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, rep, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if len(rep.Jobs) != 1 || rep.Truncated != 1 {
		t.Fatalf("replay = %d jobs, %d truncated; want 1, 1", len(rep.Jobs), rep.Truncated)
	}
	if rep.Jobs[0].State != StateQueued {
		t.Fatalf("torn state record applied: %v", rep.Jobs[0].State)
	}
	// OpenStore sealed the torn line, so records appended after recovery
	// survive the next replay — only the torn record itself is lost.
	if err := st2.AppendState("j1", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	_, rep2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Truncated != 1 || rep2.Jobs[0].State != StateDone {
		t.Fatalf("post-recovery replay = truncated %d, state %v; want 1, done",
			rep2.Truncated, rep2.Jobs[0].State)
	}
}

// TestResumeFailsOversizedJob: an unfinished WAL job record whose spec no
// longer validates (here tuples past MaxTuples, written as no submit could
// write it now) fails at resume as "resume: <error>" and is never queued,
// so it is never run; the failure is logged, and a second restart replays
// it as failed.
func TestResumeFailsOversizedJob(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindCampaign, Tuples: MaxTuples + 1, Seed: 1}
	if err := st.AppendJob("j1", spec, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for restart := 1; restart <= 2; restart++ {
		svc, err := New(Options{StateDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		j, ok := svc.Get("j1")
		if !ok {
			t.Fatalf("restart %d: job not replayed", restart)
		}
		got := j.Status()
		want := fmt.Sprintf("resume: jobs: tuples must be at most %d, got %d", MaxTuples, MaxTuples+1)
		if got.State != StateFailed || got.Error != want {
			t.Errorf("restart %d: job = %s %q, want failed %q", restart, got.State, got.Error, want)
		}
		if d := svc.queue.depth(); d != 0 {
			t.Errorf("restart %d: queue depth %d, want 0", restart, d)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		st, rep, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rj := rep.Jobs[0]; rj.State != StateFailed || rj.Err != want {
			t.Errorf("restart %d: the log holds the job as %s %q, want failed %q", restart, rj.State, rj.Err, want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALReplay writes arbitrary bytes as a state directory's wal.jsonl and
// opens it: replay must not panic, must count at most one record or one
// truncation per non-empty line, and must leave a log that takes appends:
// a job appended after OpenStore (which seals a torn tail) is replayed, as
// one more record, by the next OpenStore. The seeds are TestWALRoundTrip's
// log whole, with a torn tail, with its shard record twice, with its shard
// record before its job, and with one bit flipped in its first line.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	sum := &ShardSummary{Index: 3, Unit: 1, Shard: 2, UnitName: "imul", Injections: 512,
		SDC: map[string]faultsim.Counts{"parity": {K: 4, N: 512}}, Digest: "abc"}
	sum.Severity[0] = faultsim.Counts{K: 100, N: 512}
	sum.Stats = faultsim.EvalStats{NetNodes: 322, Tuples: 512, EvalCounters: gates.EvalCounters{
		BaselineNodes: 2576, ConeNodes: 25000, SiteEvals: 520, EvalNodes: 2100}}
	for _, err := range []error{
		st.AppendJob("j1", Spec{Kind: KindCampaign, Tuples: 100, Seed: 7}, "0af7651916cd43dd8448eb211c80319c"),
		st.AppendState("j1", StateRunning, ""),
		st.AppendShard("j1", sum),
		st.AppendJob("j2", Spec{Kind: KindVerify}, ""),
		st.AppendState("j2", StateDone, ""),
		st.AppendResult("j2", json.RawMessage(`{"kind":"verify"}`)),
		st.Close(),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	job, shard := lines[0], lines[2]
	flipped := []byte(string(raw))
	flipped[len(job)/2] ^= 0x04
	f.Add(raw)
	f.Add([]byte(string(raw) + `{"t":"state","id":"j1","sta`))
	f.Add([]byte(job + lines[1] + shard + shard + strings.Join(lines[3:], "")))
	f.Add([]byte(shard + job + lines[1] + strings.Join(lines[3:], "")))
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, rep, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		lines := 0
		for _, l := range bytes.Split(raw, []byte("\n")) {
			if len(l) > 0 {
				lines++
			}
		}
		if rep.Records+rep.Truncated > lines || len(rep.Jobs) > rep.Records {
			t.Fatalf("%d records, %d truncated and %d jobs from %d non-empty lines",
				rep.Records, rep.Truncated, len(rep.Jobs), lines)
		}
		spec := Spec{Kind: KindVerify}
		err = st.AppendJob("fuzz-probe", spec, "")
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		st, again, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		st.Close()
		if again.Records != rep.Records+1 || again.Truncated != rep.Truncated {
			t.Fatalf("after one append: %d records, %d truncated; want %d, %d",
				again.Records, again.Truncated, rep.Records+1, rep.Truncated)
		}
		if last := again.Jobs[len(again.Jobs)-1]; last.ID != "fuzz-probe" || !reflect.DeepEqual(last.Spec, spec) {
			t.Fatalf("appended job replays as %+v", last)
		}
	})
}
