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

// Tier is the byte store under a Store: values by content key, each read
// and write filed under its item class ("cell", "result", "trace"). The
// job server's content-addressed cache is one, so its values outlive the
// process and it counts hits and misses per item; NewStore(nil) keeps the
// values in memory.
type Tier interface {
	Get(item, key string) ([]byte, bool)
	Put(item, key string, val []byte) error
}

// Store resolves reusable artifacts by content key: the sweep cells of
// every sweep handed it through Options.Cells, and in the job server also
// job results and operand traces. A key has at most one owner at a time.
// The owner reads the tier and computes the value only when the tier holds
// none it can decode; every other caller of the key waits for the owner and
// then looks again, so it reads what the owner stored, or, when the owner
// stored nothing because it failed, was cancelled or panicked, becomes the
// owner itself. Only a successful computation is stored.
//
// Waiting cannot deadlock. An owner waits only on values its own value is
// computed from: a headline result on its campaign's result, a campaign on
// its operand trace, a sweep on its cells. Cells and traces wait on
// nothing, so no chain of owners waits on itself.
type Store struct {
	tier Tier

	mu   sync.Mutex
	busy map[string]chan struct{} // by key; closed when its owner is done
}

// NewStore returns a store over tier (nil: a private in-memory map).
func NewStore(tier Tier) *Store {
	if tier == nil {
		tier = &memTier{m: make(map[string][]byte)}
	}
	return &Store{tier: tier, busy: make(map[string]chan struct{})}
}

// Resolve returns the value of item under key and whether this call
// computed it. A stored value that decode refuses is computed again and
// overwritten; a nil decode accepts every stored value. A caller that
// gives up while it waits for another owner returns ctx.Err().
func (s *Store) Resolve(ctx context.Context, item, key string, decode func([]byte) error, compute func(context.Context) ([]byte, error)) (val []byte, computed bool, err error) {
	for {
		s.mu.Lock()
		busy, waiting := s.busy[key]
		if !waiting {
			s.busy[key] = make(chan struct{})
		}
		s.mu.Unlock()
		if !waiting {
			break
		}
		select {
		case <-busy:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	defer func() {
		s.mu.Lock()
		busy := s.busy[key]
		delete(s.busy, key)
		s.mu.Unlock()
		close(busy)
	}()
	if b, ok := s.tier.Get(item, key); ok && (decode == nil || decode(b) == nil) {
		return b, false, nil
	}
	if val, err = compute(ctx); err == nil {
		err = s.tier.Put(item, key, val)
	}
	if err != nil {
		return nil, true, err
	}
	return val, true, nil
}

// resolve returns the outcome of the sweep cell under key and whether this
// call launched it. A nil store launches every cell.
func (s *Store) resolve(ctx context.Context, key string, launch func(context.Context) (cellOutcome, error)) (cellOutcome, bool, error) {
	if s == nil {
		out, err := launch(ctx)
		return out, true, err
	}
	var out cellOutcome
	_, ran, err := s.Resolve(ctx, "cell", key,
		func(b []byte) (err error) {
			out, err = decodeCell(b)
			return err
		},
		func(ctx context.Context) ([]byte, error) {
			var err error
			if out, err = launch(ctx); err != nil {
				return nil, err
			}
			return json.Marshal(out)
		})
	return out, ran, err
}

// memTier is the in-memory Tier of a store built without one.
type memTier struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (t *memTier) Get(_, key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.m[key]
	return b, ok
}

func (t *memTier) Put(_, key string, val []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[key] = val
	return nil
}
