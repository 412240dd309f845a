package jobs

import (
	"bytes"
	"testing"
	"time"
)

func waitTerminal(t *testing.T, j *Job, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := j.Status(); st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %v (state %s)", j.ID, timeout, j.State())
	return Status{}
}

// TestServiceCampaignLifecycle drives a campaign through the full service:
// submit, run to done, resubmit identically (cache hit, identical bytes),
// restart the service (finished jobs replay with their results).
func TestServiceCampaignLifecycle(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Options{StateDir: dir, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindCampaign, Tuples: 64, Seed: 1}
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := svc.Get(id)
	if !ok {
		t.Fatalf("submitted job %s not found", id)
	}
	st := waitTerminal(t, j, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("job = %s: %s", st.State, st.Error)
	}
	if st.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if st.ShardsTotal == 0 || st.ShardsDone != st.ShardsTotal {
		t.Fatalf("shard progress = %d/%d", st.ShardsDone, st.ShardsTotal)
	}
	res1 := j.Result()
	if len(res1) == 0 {
		t.Fatal("empty result")
	}

	// Identical work resubmitted: served from the result cache, same bytes.
	id2, err := svc.Submit(Spec{Kind: KindCampaign, Tuples: 64, Seed: 1, Tenant: "other"})
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := svc.Get(id2)
	st2 := waitTerminal(t, j2, time.Minute)
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("resubmission = %s, cacheHit %v", st2.State, st2.CacheHit)
	}
	if !bytes.Equal(res1, j2.Result()) {
		t.Fatal("cached result differs from original")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted server replays finished jobs with their results.
	svc2, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	jobs := svc2.List()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs; want 2", len(jobs))
	}
	for _, rj := range jobs {
		if rj.State() != StateDone {
			t.Fatalf("replayed job %s state = %s", rj.ID, rj.State())
		}
		if !bytes.Equal(rj.Result(), res1) {
			t.Fatalf("replayed job %s result differs", rj.ID)
		}
	}
}

// TestServiceShutdownResume is the restart contract at service level: a
// campaign interrupted by shutdown resumes from its shard checkpoints on
// the next start and produces exactly the bytes of an uninterrupted run.
func TestServiceShutdownResume(t *testing.T) {
	spec := Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 1}

	// Reference: an uninterrupted run in a fresh state dir.
	ref, err := New(Options{StateDir: t.TempDir(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	refID, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refJob, _ := ref.Get(refID)
	if st := waitTerminal(t, refJob, 2*time.Minute); st.State != StateDone {
		t.Fatalf("reference run = %s: %s", st.State, st.Error)
	}
	refBytes := refJob.Result()
	ref.Close()

	// Interrupted run: shut the service down after the first shard
	// checkpoint lands.
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
	_, ch, unsub := j.SubscribeSince(-1)
	sawShard := false
	deadline := time.After(2 * time.Minute)
wait:
	for {
		select {
		case ev, open := <-ch:
			if !open {
				break wait // job finished before we could interrupt: still valid
			}
			if ev.Type == "shard" {
				sawShard = true
				break wait
			}
		case <-deadline:
			t.Fatal("no shard event before deadline")
		}
	}
	unsub()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same state dir: the job must come back, resume,
	// and finish with the reference bytes.
	svc2, err := New(Options{StateDir: dir, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j2, ok := svc2.Get(id)
	if !ok {
		t.Fatalf("job %s not replayed after restart", id)
	}
	st := waitTerminal(t, j2, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("resumed job = %s: %s", st.State, st.Error)
	}
	if !bytes.Equal(j2.Result(), refBytes) {
		t.Fatal("resumed result differs from uninterrupted reference run")
	}
	if sawShard && st.CacheHit {
		t.Fatal("resumed run claimed a result-cache hit despite interrupted first run")
	}
}

// TestServiceCancelQueued cancels a job before a worker picks it up.
func TestServiceCancelQueued(t *testing.T) {
	svc, err := New(Options{MaxConcurrentJobs: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Occupy the single executor so the next submission stays queued.
	blocker, err := svc.Submit(Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(Spec{Kind: KindCampaign, Tuples: resumeTuples, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	j, _ := svc.Get(id)
	if st := waitTerminal(t, j, time.Minute); st.State != StateCancelled {
		t.Fatalf("cancelled queued job = %s", st.State)
	}
	// The blocker is irrelevant to the assertion; cancel it to shorten Close.
	_ = svc.Cancel(blocker)
}

// TestReadyRightAfterNew: the runner check passes as soon as New returns,
// before the worker goroutines have been scheduled, so a server is ready
// when it prints its listen line.
func TestReadyRightAfterNew(t *testing.T) {
	for i := 0; i < 20; i++ {
		svc, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range svc.ReadyChecks() {
			if err := c.Check(); err != nil {
				t.Errorf("check %s right after New: %v", c.Name, err)
			}
		}
		svc.Close()
	}
}
