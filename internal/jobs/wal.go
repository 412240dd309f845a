package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"swapcodes/internal/faultsim"
	"swapcodes/internal/obs"
)

// Store is the service's persistence layer: an append-only JSON-lines
// write-ahead log under the -state directory. Every submission, state
// transition, completed campaign shard, and final result appends one
// record; a restarted server replays the log to rebuild its job table and
// re-enqueues unfinished jobs with their completed shards pre-loaded, so
// resumption re-runs only the missing work.
//
// Appends are plain write(2) calls on an O_APPEND file: a SIGKILLed process
// loses nothing that reached the syscall, which is the durability class the
// kill/resume e2e test exercises. (Machine-crash durability would need
// fsync per record; campaigns re-run cheaply enough that we do not pay that
// on the shard hot path.)
type Store struct {
	mu  sync.Mutex
	f   *os.File
	dir string

	// Telemetry (nil until bind): growth of the log is itself a service
	// signal — jobs.wal_bytes and jobs.wal_records gauges track it live.
	bytesGauge *obs.Gauge
	recsGauge  *obs.Gauge
}

// walRecord is one log line. T selects which of the optional fields are
// meaningful.
type walRecord struct {
	T     string          `json:"t"` // "job" | "state" | "shard" | "result"
	ID    string          `json:"id"`
	Trace string          `json:"trace,omitempty"` // job records: the trace ID
	Spec  *Spec           `json:"spec,omitempty"`
	State State           `json:"state,omitempty"`
	Err   string          `json:"err,omitempty"`
	Shard *ShardSummary   `json:"shard,omitempty"`
	Res   json.RawMessage `json:"res,omitempty"`
}

// ShardSummary is the checkpointed outcome of one campaign shard: the
// derived counts every final table needs, plus a digest of the raw
// injection stream. Counts merge order-independently (faultsim.Counts), so
// a result assembled from any mix of replayed and re-run shards is
// identical to an uninterrupted run's. Raw injections are deliberately not
// persisted — they carry full 64-bit operand patterns that JSON numbers
// cannot represent, and nothing downstream needs them once counted and
// digested.
type ShardSummary struct {
	// Index is the shard's position in the plan's canonical shard list.
	Index int `json:"index"`
	// Unit and Shard mirror harness.ShardRef for readability and replay
	// validation.
	Unit  int `json:"unit"`
	Shard int `json:"shard"`
	// UnitName guards against replaying a checkpoint onto a different plan.
	UnitName string `json:"unit_name"`
	// Injections is the unmasked injection count of the shard.
	Injections int `json:"injections"`
	// Severity tallies the Figure 10 buckets, indexed by faultsim.Severity.
	Severity [3]faultsim.Counts `json:"severity"`
	// SDC tallies undetected errors per register-file code name (Fig. 11).
	SDC map[string]faultsim.Counts `json:"sdc"`
	// Stats carries the evaluator work counters for cone accounting.
	Stats faultsim.EvalStats `json:"stats"`
	// Digest is the hex SHA-256 of the shard's canonical injection stream.
	Digest string `json:"digest"`
}

// ReplayJob is one job reconstructed from the log.
type ReplayJob struct {
	ID string
	// TraceID survives restarts with the job: a resumed campaign's logs and
	// spans keep correlating under the trace the submitter minted. Empty for
	// logs written before trace propagation existed.
	TraceID string
	Spec    Spec
	State   State
	Err     string
	Shards  map[int]*ShardSummary // by plan shard index
	Result  json.RawMessage
}

// Replay is the rebuilt state of a log.
type Replay struct {
	// Jobs in submission order.
	Jobs []*ReplayJob
	// Records counts the valid records replayed (seeds the wal_records
	// gauge on restart).
	Records int
	// Truncated counts log lines dropped as unparseable — nonzero means a
	// previous process died mid-append (expected after SIGKILL) or the file
	// was corrupted. Bad lines are skipped, not fatal: a torn record is
	// incomplete JSON and can never masquerade as a valid one.
	Truncated int
}

// OpenStore opens (creating if needed) the state directory and replays the
// WAL. The returned Replay lists every job the log knows about; the caller
// re-enqueues the unfinished ones.
func OpenStore(dir string) (*Store, *Replay, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	path := filepath.Join(dir, "wal.jsonl")
	rep, err := replay(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: open wal: %w", err)
	}
	if err := sealTornTail(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Store{f: f, dir: dir}, rep, nil
}

// sealTornTail terminates an unfinished last line (a SIGKILL mid-append)
// with a newline so the next append starts a fresh record instead of fusing
// with the torn one — fused lines would take valid records down with them.
func sealTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("jobs: seal wal: %w", err)
	}
	if st.Size() == 0 {
		return nil
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
		return fmt.Errorf("jobs: seal wal: %w", err)
	}
	if last[0] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("jobs: seal wal: %w", err)
		}
	}
	return nil
}

// bind mirrors the log's size into reg as jobs.wal_bytes / jobs.wal_records
// gauges, seeded from the replayed file so a restarted server reports its
// real on-disk footprint, not just this process's appends.
func (s *Store) bind(reg *obs.Registry, rep *Replay) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesGauge = reg.Gauge("jobs.wal_bytes")
	s.recsGauge = reg.Gauge("jobs.wal_records")
	if st, err := s.f.Stat(); err == nil {
		s.bytesGauge.Set(st.Size())
	}
	if rep != nil {
		s.recsGauge.Set(int64(rep.Records))
	}
}

// Healthy reports whether the log can accept appends — the /readyz WAL
// check. It stats the open descriptor rather than test-writing: a record
// appended for health checking would pollute replay.
func (s *Store) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("wal closed")
	}
	if _, err := s.f.Stat(); err != nil {
		return fmt.Errorf("wal stat: %w", err)
	}
	return nil
}

// CASDir returns the content-addressed cache directory under the state dir.
func (s *Store) CASDir() string { return filepath.Join(s.dir, "cas") }

func replay(path string) (*Replay, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &Replay{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: replay wal: %w", err)
	}
	defer f.Close()

	rep := &Replay{}
	byID := make(map[string]*ReplayJob)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn line is normal after SIGKILL (and OpenStore seals it
			// with a newline, so one may sit mid-file after a resumed run).
			// A torn record never parses — it is incomplete JSON — so
			// skipping unparseable lines loses exactly the records that
			// never fully reached the kernel.
			rep.Truncated++
			continue
		}
		switch rec.T {
		case "job":
			if rec.Spec == nil {
				rep.Truncated++
				continue
			}
			rep.Records++
			j := &ReplayJob{ID: rec.ID, TraceID: rec.Trace, Spec: *rec.Spec,
				State: StateQueued, Shards: make(map[int]*ShardSummary)}
			byID[rec.ID] = j
			rep.Jobs = append(rep.Jobs, j)
		case "state":
			rep.Records++
			if j := byID[rec.ID]; j != nil {
				j.State = rec.State
				j.Err = rec.Err
			}
		case "shard":
			rep.Records++
			if j := byID[rec.ID]; j != nil && rec.Shard != nil {
				j.Shards[rec.Shard.Index] = rec.Shard
			}
		case "result":
			rep.Records++
			if j := byID[rec.ID]; j != nil {
				j.Result = append(json.RawMessage(nil), rec.Res...)
			}
		default:
			rep.Truncated++
		}
	}
	if err := sc.Err(); err != nil && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("jobs: replay wal: %w", err)
	}
	return rep, nil
}

func (s *Store) append(rec walRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: wal marshal: %w", err)
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("jobs: wal closed")
	}
	// One write(2) per record: O_APPEND keeps concurrent appends atomic at
	// this size, and a record either fully reaches the kernel or not at all.
	_, err = s.f.Write(b)
	if err == nil && s.bytesGauge != nil {
		s.bytesGauge.Add(int64(len(b)))
		s.recsGauge.Add(1)
	}
	return err
}

// AppendJob logs a submission with its trace identity.
func (s *Store) AppendJob(id string, spec Spec, traceID string) error {
	return s.append(walRecord{T: "job", ID: id, Trace: traceID, Spec: &spec})
}

// AppendState logs a state transition.
func (s *Store) AppendState(id string, st State, errMsg string) error {
	return s.append(walRecord{T: "state", ID: id, State: st, Err: errMsg})
}

// AppendShard checkpoints a completed campaign shard.
func (s *Store) AppendShard(id string, sum *ShardSummary) error {
	return s.append(walRecord{T: "shard", ID: id, Shard: sum})
}

// AppendResult logs a job's final payload.
func (s *Store) AppendResult(id string, res json.RawMessage) error {
	return s.append(walRecord{T: "result", ID: id, Res: res})
}

// Close closes the log file; later appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
