package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"swapcodes/internal/compiler"
	"swapcodes/internal/sm"
)

// A sweep cell is one (workload, scheme) launch under one sm.Config,
// verified or not. Its outcome is the launch's *sm.Stats, or the compiler's
// refusal to apply the scheme to the workload (inter-thread duplication on
// mm and snap). Figures 12, 15 and 16 and the headline are grids of cells
// that share their baselines and many of their scheme columns, so the cell
// is the unit at which perf results are computed, stored and shared.

// cellFormat versions the cell key and the encoding of its outcome. Bump it
// when either changes.
const cellFormat = "cell/v2"

// CellKey is the content address of a sweep cell: the hex SHA-256 over
// every input that changes its outcome. The whole sm.Config goes in, so a
// new Config field is covered without touching this function. The flight
// recorder is left out: it observes a launch without changing it.
func CellKey(workload string, s compiler.Scheme, cfg sm.Config, verify bool) string {
	return cellKey(cellFormat, workload, s, cfg, verify)
}

func cellKey(format, workload string, s compiler.Scheme, cfg sm.Config, verify bool) string {
	c, err := json.Marshal(cfg)
	if err != nil { // sm.Config is plain data; keep the compiler honest
		panic("harness: marshal sm.Config: " + err.Error())
	}
	h := sha256.New()
	for _, p := range []string{format, workload, SchemeName(s), string(c), strconv.FormatBool(verify)} {
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cellOutcome is what resolving a cell yields: exactly one of Stats (the
// launch ran, and passed verification when asked) and Refused (the
// compiler's error message).
type cellOutcome struct {
	Stats   *sm.Stats `json:"stats,omitempty"`
	Refused string    `json:"refused,omitempty"`
}

func decodeCell(b []byte) (cellOutcome, error) {
	var out cellOutcome
	if err := json.Unmarshal(b, &out); err != nil {
		return cellOutcome{}, err
	}
	if (out.Stats == nil) == (out.Refused == "") {
		return cellOutcome{}, errors.New("harness: cell holds neither stats nor a refusal")
	}
	return out, nil
}

// CellTier is the byte store under a CellStore, keyed by CellKey. The job
// server backs it with its content-addressed cache, so cells outlive the
// process; NewCellStore(nil) keeps them in memory.
type CellTier interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// CellStore resolves sweep cells for every sweep handed it through
// Options.Cells. A cell it holds is decoded instead of launched; a cell
// another sweep is launching at that moment is waited for, so each cell is
// launched once however many sweeps ask for it concurrently. Only a
// successful outcome is stored: a failed launch, a failed verification or a
// cancelled one stores nothing, and whoever asks next launches the cell
// again.
//
// Waiting cannot deadlock: a goroutine owns at most one cell at a time, and
// only while it launches that cell, which never waits on another.
type CellStore struct {
	tier CellTier

	mu     sync.Mutex
	flight map[string]*cellFlight
}

// cellFlight is one resolution in progress; done closes when it ends.
type cellFlight struct {
	done chan struct{}
	out  cellOutcome
	err  error
}

// NewCellStore returns a store over tier (nil: a private in-memory map).
func NewCellStore(tier CellTier) *CellStore {
	if tier == nil {
		tier = &memTier{m: make(map[string][]byte)}
	}
	return &CellStore{tier: tier, flight: make(map[string]*cellFlight)}
}

// resolve returns the outcome of the cell under key and whether this call
// launched it. A nil store launches every cell.
func (s *CellStore) resolve(ctx context.Context, key string, launch func(context.Context) (cellOutcome, error)) (cellOutcome, bool, error) {
	if s == nil {
		out, err := launch(ctx)
		return out, true, err
	}
	for {
		s.mu.Lock()
		f, waiting := s.flight[key]
		if !waiting {
			f = &cellFlight{done: make(chan struct{})}
			s.flight[key] = f
		}
		s.mu.Unlock()
		if !waiting {
			ran := s.fill(ctx, key, f, launch)
			return f.out, ran, f.err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return cellOutcome{}, false, ctx.Err()
		}
		if f.err == nil {
			return f.out, false, nil
		}
		// The owner failed, possibly only because its own sweep was
		// cancelled: resolve the cell afresh.
	}
}

// fill resolves the flight f this goroutine owns: from the tier when it
// holds a decodable entry, else by launching and storing the outcome. An
// undecodable entry is launched again and overwritten.
func (s *CellStore) fill(ctx context.Context, key string, f *cellFlight, launch func(context.Context) (cellOutcome, error)) (ran bool) {
	defer func() {
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		close(f.done)
	}()
	if b, ok := s.tier.Get(key); ok {
		if out, err := decodeCell(b); err == nil {
			f.out = out
			return false
		}
	}
	f.err = errors.New("harness: cell launch panicked") // replaced on return
	out, err := launch(ctx)
	f.out, f.err = out, err
	if err != nil {
		return true
	}
	b, err := json.Marshal(out)
	if err == nil {
		err = s.tier.Put(key, b)
	}
	f.err = err
	return true
}

// memTier is the in-memory CellTier of a store built without one.
type memTier struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (t *memTier) Get(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.m[key]
	return b, ok
}

func (t *memTier) Put(key string, val []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[key] = val
	return nil
}
