package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"swapcodes/internal/obs"
)

// Cache is the content-addressed store for expensive intermediates and
// final results: operand traces (a full workload-suite replay each), perf
// sweep cells (harness.CellKey) and finished job payloads. It is the tier
// of the service's harness.Store, through which all three resolve. Keys are
// SHA-256 content addresses derived from the inputs that determine the
// value (CacheKey), so a hit is always semantically safe to reuse, as long
// as one simulator build writes a state dir.
//
// Layout: a memory map in front of an optional disk tier at
// <dir>/<kk>/<key> (kk = first key byte in hex, to keep directories small).
// Disk writes go through a temp file + rename, so readers never observe a
// torn entry even across SIGKILL. Per-item hit/miss counters land in the
// obs registry as jobs.cache_hits{item=...} / jobs.cache_misses{item=...},
// scrapeable from /metrics.
type Cache struct {
	dir string
	reg *obs.Registry

	// CAS footprint gauges (nil for memory-only caches): jobs.cas_bytes and
	// jobs.cas_entries track the disk tier, seeded from a directory walk at
	// open so a restarted server reports what it inherited, not just what it
	// wrote.
	casBytes   *obs.Gauge
	casEntries *obs.Gauge

	mu  sync.Mutex
	mem map[string][]byte
}

// NewCache opens a cache over dir (empty dir = memory-only) mirroring its
// counters into reg (nil = private registry).
func NewCache(dir string, reg *obs.Registry) (*Cache, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cache{dir: dir, reg: reg, mem: make(map[string][]byte)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: cache dir: %w", err)
		}
		c.casBytes = reg.Gauge("jobs.cas_bytes")
		c.casEntries = reg.Gauge("jobs.cas_entries")
		var bytes, entries int64
		_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return nil // best-effort: a racing writer or vanished temp file is fine
			}
			bytes += info.Size()
			entries++
			return nil
		})
		c.casBytes.Set(bytes)
		c.casEntries.Set(entries)
	}
	return c, nil
}

// CacheKey builds a content address from the parts that determine a value.
func CacheKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (c *Cache) hit(item string, ok bool) {
	name := "jobs.cache_hits"
	if !ok {
		name = "jobs.cache_misses"
	}
	c.reg.Counter(obs.Name(name, "item", item)).Inc()
	// Derived hit ratio as an integer-percent gauge, per item: dashboards get
	// it without differencing the counters themselves.
	hits := c.reg.Counter(obs.Name("jobs.cache_hits", "item", item)).Value()
	misses := c.reg.Counter(obs.Name("jobs.cache_misses", "item", item)).Value()
	if total := hits + misses; total > 0 {
		c.reg.Gauge(obs.Name("jobs.cache_hit_pct", "item", item)).Set(100 * hits / total)
	}
}

// Get looks up a key, checking memory then disk, and counts the outcome
// under item ("trace", "cell", ...).
func (c *Cache) Get(item, key string) ([]byte, bool) {
	b, ok := c.lookup(key)
	c.hit(item, ok)
	return b, ok
}

// lookup is Get without the count, for the submit-time peek at a result:
// it counts only a hit, since a job that misses there counts its outcome
// when it runs.
func (c *Cache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	v, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		return v, true
	}
	if c.dir != "" {
		if b, err := os.ReadFile(c.path(key)); err == nil {
			c.mu.Lock()
			c.mem[key] = b
			c.mu.Unlock()
			return b, true
		}
	}
	return nil, false
}

// Put stores a value under its key in memory and, when configured, on disk.
func (c *Cache) Put(item, key string, val []byte) error {
	c.mu.Lock()
	c.mem[key] = val
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("jobs: cache put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: cache put: %w", err)
	}
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: cache put: %w", err)
	}
	// Stat the destination before the rename: an overwrite replaces bytes
	// rather than adding an entry, and the gauges must reflect that.
	var prevSize int64
	existed := false
	if st, err := os.Stat(path); err == nil {
		prevSize, existed = st.Size(), true
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: cache put: %w", err)
	}
	if c.casBytes != nil {
		c.casBytes.Add(int64(len(val)) - prevSize)
		if !existed {
			c.casEntries.Add(1)
		}
	}
	return nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key)
}
