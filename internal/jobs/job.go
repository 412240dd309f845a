package jobs

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// State is a job's lifecycle position. Transitions are
// queued → running → {done, failed, cancelled}; a server restart moves
// unfinished jobs back to queued (their shard checkpoints survive in the
// WAL, so "back to queued" loses no completed work).
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// DefaultEventHistory bounds the per-job event ring kept for SSE reconnect
// replay (Last-Event-ID). A 10k-tuple campaign emits ~130 events; the cap
// covers campaigns two orders of magnitude larger before a reconnecting
// client falls back to a fresh state snapshot.
const DefaultEventHistory = 16384

// Job is one submitted spec moving through the service.
type Job struct {
	ID string
	// TraceID is the request-scoped trace identity (32 hex digits, the W3C
	// trace-id field): client-minted via the traceparent header, or
	// server-minted when the submission carried none. Immutable after
	// creation; every WAL record, SSE event, log line, and obs span emitted
	// on the job's behalf carries it.
	TraceID string
	Spec    Spec

	mu          sync.Mutex
	state       State
	err         string
	result      json.RawMessage
	shardsDone  int
	shardsTotal int
	cacheHit    bool
	userCancel  bool
	flightKey   string
	submitted   time.Time
	started     time.Time
	finished    time.Time
	enqueuedUS  int64 // recorder timestamp at submission, for queue-wait spans
	cancel      context.CancelFunc

	subs    map[int]chan Event
	nextSub int

	// Event ring for SSE reconnect replay: every published event, stamped
	// with a monotonically increasing Seq, newest at the tail. Bounded by
	// DefaultEventHistory; seq numbering is unaffected by trimming.
	history []Event
	lastSeq int64
}

// Event is one progress notification, the payload of the SSE stream.
type Event struct {
	// Seq numbers the job's events from 1, the SSE "id:" field; a client
	// reconnecting with Last-Event-ID resumes strictly after it.
	Seq int64 `json:"seq"`
	// Type is "state" (lifecycle transition), "shard" (one campaign shard
	// completed), or "done" (terminal, carries the final state).
	Type    string `json:"type"`
	JobID   string `json:"job_id"`
	TraceID string `json:"trace_id,omitempty"`
	State   State  `json:"state"`
	// Shard fields, set on "shard" events.
	Unit       string `json:"unit,omitempty"`
	Shard      int    `json:"shard,omitempty"`
	Injections int    `json:"injections,omitempty"`
	Replayed   bool   `json:"replayed,omitempty"` // restored from a checkpoint, not re-run
	// Progress counters, set on every event.
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total"`
	Error       string `json:"error,omitempty"`
}

// Status is the JSON view of a job, the body of GET /jobs/{id}.
type Status struct {
	ID          string `json:"id"`
	TraceID     string `json:"trace_id,omitempty"`
	Spec        Spec   `json:"spec"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total"`
	CacheHit    bool   `json:"cache_hit,omitempty"`
	// FlightBundle is the content address of the flight-recorder black box
	// captured when the job failed (GET /jobs/{id}/flight serves it).
	FlightBundle string    `json:"flight_bundle,omitempty"`
	SubmittedAt  time.Time `json:"submitted_at"`
	StartedAt    time.Time `json:"started_at"`
	FinishedAt   time.Time `json:"finished_at"`
}

func newJob(id string, spec Spec, submitted time.Time) *Job {
	return &Job{ID: id, Spec: spec, state: StateQueued, submitted: submitted,
		subs: make(map[int]chan Event)}
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, TraceID: j.TraceID, Spec: j.Spec, State: j.state, Error: j.err,
		ShardsDone: j.shardsDone, ShardsTotal: j.shardsTotal,
		CacheHit: j.cacheHit, FlightBundle: j.flightKey,
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}
}

// setFlight records the CAS address of the failure's flight bundle.
func (j *Job) setFlight(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.flightKey = key
}

// FlightKey returns the CAS address of the failure's flight bundle ("" when
// the job did not fail or failed without a recorded bundle).
func (j *Job) FlightKey() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flightKey
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the final payload (nil until done).
func (j *Job) Result() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// SubscribeSince registers an event listener resuming after sequence number
// since: the returned backlog holds the retained events with Seq > since
// (none for since < 0), and the channel delivers everything published after
// the call — registration and the backlog snapshot are atomic, so no event
// is missed or duplicated between the two. If trimming has dropped events
// the client never saw (since < the oldest retained seq - 1), the backlog
// begins at the oldest retained event; callers detect the gap by the seq
// jump. On an already-terminal job the backlog ends with the "done" event
// and the channel is closed.
func (j *Job) SubscribeSince(since int64) (backlog []Event, ch <-chan Event, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if since >= 0 {
		for _, ev := range j.history {
			if ev.Seq > since {
				backlog = append(backlog, ev)
			}
		}
	}
	c := make(chan Event, 64)
	if j.state.Terminal() {
		// No further events will ever be published; close now so a consumer
		// draining backlog-then-channel terminates.
		close(c)
		return backlog, c, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = c
	return backlog, c, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
}

// publish fans an event out to subscribers. Callers hold j.mu.
func (j *Job) publishLocked(ev Event) {
	j.lastSeq++
	ev.Seq = j.lastSeq
	ev.JobID = j.ID
	ev.TraceID = j.TraceID
	ev.State = j.state
	ev.ShardsDone = j.shardsDone
	ev.ShardsTotal = j.shardsTotal
	ev.Error = j.err
	j.history = append(j.history, ev)
	if len(j.history) > DefaultEventHistory {
		// Trim from the head; Seq keeps counting, so a reconnect past the
		// window is detectable as a gap.
		j.history = append(j.history[:0:0], j.history[len(j.history)-DefaultEventHistory:]...)
	}
	for id, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			if ev.Type == "done" {
				// Terminal events must not be lost: drop the laggard
				// subscriber instead (its channel close signals the end).
				delete(j.subs, id)
				close(ch)
			}
		}
	}
}

func (j *Job) setState(st State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.err = errMsg
	now := time.Now()
	switch st {
	case StateRunning:
		j.started = now
	case StateDone, StateFailed, StateCancelled:
		j.finished = now
	}
	typ := "state"
	if st.Terminal() {
		typ = "done"
	}
	j.publishLocked(Event{Type: typ})
	if st.Terminal() {
		for id, ch := range j.subs {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// start stamps the start time of a job that skips the running state (a
// result answered at submit).
func (j *Job) start() {
	j.mu.Lock()
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) setResult(raw json.RawMessage, cacheHit bool) {
	j.mu.Lock()
	j.result = raw
	j.cacheHit = cacheHit
	j.mu.Unlock()
}

func (j *Job) setShardTotal(n int) {
	j.mu.Lock()
	j.shardsTotal = n
	j.mu.Unlock()
}

// shardDone records one completed shard and publishes a progress event.
func (j *Job) shardDone(unit string, shard, injections int, replayed bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.shardsDone++
	j.publishLocked(Event{Type: "shard", Unit: unit, Shard: shard,
		Injections: injections, Replayed: replayed})
}

func (j *Job) markUserCancel() {
	j.mu.Lock()
	j.userCancel = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (j *Job) userCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

func (j *Job) bindCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
}

// queueWait reports how long the job sat queued (submission to start) and
// the recorder timestamp at which it was enqueued.
func (j *Job) queueWait() (enqueuedUS int64, wait time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enqueuedUS, time.Since(j.submitted)
}

func (j *Job) setEnqueuedUS(us int64) {
	j.mu.Lock()
	j.enqueuedUS = us
	j.mu.Unlock()
}
