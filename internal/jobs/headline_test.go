package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"swapcodes/internal/obs"
)

// TestHeadlinePayloadPin pins the bytes of a headline job's payload at 64
// tuples, seed 1: its claim rows come from three perf sweeps, Figure 14's
// power estimate and the pooled SDC tallies of the (64, 1) campaign, so a
// change to how the job obtains any of them must leave this digest alone.
func TestHeadlinePayloadPin(t *testing.T) {
	const want = "bc42bc3c68ad64786fa668f23d4ed3f2366e3132587913d096eab90602168124"
	got := runSpec(t, newService(t, Options{Workers: 2}), Spec{Kind: KindHeadline, Tuples: 64, Seed: 1})
	if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
		t.Errorf("headline payload sha256 = %x, want %s\n%s", sum, want, got)
	}
}

// releases counts the campaign executor's release:<unit> instants, one per
// unit of every campaign the service ran.
func releases(svc *Service) int {
	n := 0
	for _, e := range svc.rec.Events() {
		if strings.HasPrefix(e.Name, "release:") {
			n++
		}
	}
	return n
}

// TestHeadlineAfterCampaignRunsNoShard: a headline job reads its campaign
// from the payload a campaign job of the same (tuples, seed) stored, with
// one more result hit and no unit released.
func TestHeadlineAfterCampaignRunsNoShard(t *testing.T) {
	svc := newService(t, Options{Workers: 2})
	resultHits := func() int64 {
		return svc.rec.Registry().Counter(obs.Name("jobs.cache_hits", "item", "result")).Value()
	}
	runSpec(t, svc, Spec{Kind: KindCampaign, Tuples: 64, Seed: 1})
	hits, rel := resultHits(), releases(svc)
	if rel == 0 {
		t.Fatal("the campaign job released no unit")
	}
	runSpec(t, svc, Spec{Kind: KindHeadline, Tuples: 64, Seed: 1})
	if got := releases(svc); got != rel {
		t.Errorf("the headline job released %d units, want none", got-rel)
	}
	if got := resultHits(); got != hits+1 {
		t.Errorf("the headline job added %d result hits, want 1", got-hits)
	}
}

// TestCampaignAfterHeadlineAnsweredAtSubmit: a headline job stores its
// campaign's payload under the campaign spec's key, so a campaign job of
// the same (tuples, seed) is done at submit, with a cold campaign job's
// bytes; the headline job shows the campaign's shards as its own.
func TestCampaignAfterHeadlineAnsweredAtSubmit(t *testing.T) {
	campaign := Spec{Kind: KindCampaign, Tuples: 64, Seed: 1}
	cold := runSpec(t, newService(t, Options{Workers: 2}), campaign)

	svc := newService(t, Options{Workers: 2})
	id, err := svc.Submit(Spec{Kind: KindHeadline, Tuples: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := svc.Get(id)
	st := waitTerminal(t, h, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("headline job = %s: %s", st.State, st.Error)
	}
	if st.ShardsTotal == 0 || st.ShardsDone != st.ShardsTotal {
		t.Errorf("headline job ran %d of %d campaign shards, want all of some", st.ShardsDone, st.ShardsTotal)
	}
	id, err = svc.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := svc.Get(id)
	if st := j.Status(); st.State != StateDone || !st.CacheHit {
		t.Fatalf("campaign job after the headline = %s, cache_hit %v; want done at submit", st.State, st.CacheHit)
	}
	if !bytes.Equal(j.Result(), cold) {
		t.Error("the campaign payload a headline job stored differs from a campaign job's")
	}
}

// TestHeadlineResumesCampaignCheckpoints: a headline job's campaign
// checkpoints its shards under the job's ID, so a headline job stopped by
// Close partway through its campaign resumes from them on restart and
// returns the bytes of an uninterrupted run.
func TestHeadlineResumesCampaignCheckpoints(t *testing.T) {
	spec := Spec{Kind: KindHeadline, Tuples: resumeTuples, Seed: 1}
	want := runSpec(t, newService(t, Options{Workers: 2}), spec)

	dir := t.TempDir()
	svc, err := New(Options{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := svc.Get(id)
	events, unsub := j.Subscribe()
	for ev := range events {
		if ev.Type == "shard" {
			break
		}
	}
	unsub()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.ShardsDone == 0 || st.ShardsDone == st.ShardsTotal {
		t.Fatalf("Close stopped the headline job at shard %d of %d, want partway through its campaign", st.ShardsDone, st.ShardsTotal)
	}

	j2, ok := newService(t, Options{StateDir: dir, Workers: 2}).Get(id)
	if !ok {
		t.Fatal("headline job not replayed")
	}
	st := waitTerminal(t, j2, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("resumed headline job = %s: %s", st.State, st.Error)
	}
	backlog, _, _ := j2.SubscribeSince(0)
	replayed, rerun := 0, 0
	for _, ev := range backlog {
		switch {
		case ev.Type != "shard":
		case ev.Replayed:
			replayed++
		default:
			rerun++
		}
	}
	if replayed == 0 || replayed+rerun != st.ShardsTotal {
		t.Errorf("resumed headline job replayed %d and ran %d of %d shards, want some replayed and the rest run",
			replayed, rerun, st.ShardsTotal)
	}
	if !bytes.Equal(j2.Result(), want) {
		t.Error("resumed headline payload differs from an uninterrupted run's")
	}
}
