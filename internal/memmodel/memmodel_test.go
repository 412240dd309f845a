package memmodel

import (
	"reflect"
	"testing"
)

// small returns a deliberately tiny hierarchy so tests can exercise
// evictions, MSHR exhaustion, and bank queues with few accesses.
func small() Config {
	return Config{
		SectorWords: 8,
		LineSectors: 4,
		L1Sets:      2, L1Ways: 2,
		L1Latency:     10,
		MSHRs:         2,
		L2Banks:       2,
		L2SetsPerBank: 4, L2Ways: 2,
		L2Latency: 40, L2Interval: 2,
		DRAMLatency: 100, DRAMRowPenalty: 50, DRAMInterval: 4,
		RowSectors: 8, DRAMBanks: 2,
	}
}

func TestDefaultConfigValidates(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.SectorWords = 0 },
		func(c *Config) { c.LineSectors = 0 },
		func(c *Config) { c.LineSectors = 9 }, // wider than the L1's 8-bit sector mask
		func(c *Config) { c.L1Sets = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.L2Banks = 0 },
		func(c *Config) { c.L1Latency = 0 },
		func(c *Config) { c.L2Interval = -1 },
		func(c *Config) { c.RowSectors = 0 },
	}
	for i, mut := range cases {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	cfg := DefaultConfig()
	cfg.LineSectors = 8
	if err := cfg.Validate(); err != nil {
		t.Errorf("8 sectors per line rejected: %v", err)
	}
}

// TestColdMissThenHit: the first access to a sector goes to DRAM; once the
// fill time passes, the same sector is an L1 hit at L1Latency.
func TestColdMissThenHit(t *testing.T) {
	h := New(small())
	cfg := small()
	fill, lvl := h.AccessLoad(0, []int32{0})
	if lvl != LevelDRAM {
		t.Fatalf("cold access level = %v, want dram", lvl)
	}
	// detect(10) + L2 latency(40) + DRAM row miss (100+50) = 200.
	want := cfg.L1Latency + cfg.L2Latency + cfg.DRAMLatency + cfg.DRAMRowPenalty
	if fill != want {
		t.Fatalf("cold fill = %d, want %d", fill, want)
	}
	// After the fill completes the sector is a plain L1 hit.
	fill2, lvl2 := h.AccessLoad(fill, []int32{0})
	if lvl2 != LevelL1 || fill2 != fill+cfg.L1Latency {
		t.Fatalf("post-fill access = (%d, %v), want (%d, l1)", fill2, lvl2, fill+cfg.L1Latency)
	}
	st := h.Stats()
	if st.L1Misses != 1 || st.L1Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", st)
	}
}

// TestMSHRMerge: a second load to an in-flight sector merges — same fill
// time, same level, no new miss.
func TestMSHRMerge(t *testing.T) {
	h := New(small())
	fill, _ := h.AccessLoad(0, []int32{0})
	fill2, lvl2 := h.AccessLoad(1, []int32{0})
	if fill2 != fill || lvl2 != LevelDRAM {
		t.Fatalf("merged access = (%d, %v), want (%d, dram)", fill2, lvl2, fill)
	}
	st := h.Stats()
	if st.MSHRMerges != 1 || st.L1Misses != 1 {
		t.Fatalf("stats = %+v, want 1 merge 1 miss", st)
	}
}

// TestMSHRExhaustion: with a 2-entry file, a third concurrent miss must
// wait for the earliest fill and be attributed to the MSHR.
func TestMSHRExhaustion(t *testing.T) {
	h := New(small())
	// Spread across sets/banks so only the MSHR file is the bottleneck.
	f0, _ := h.AccessLoad(0, []int32{0})
	h.AccessLoad(0, []int32{100})
	fill3, lvl3 := h.AccessLoad(0, []int32{200})
	if lvl3 != LevelMSHR {
		t.Fatalf("third miss level = %v, want mshr", lvl3)
	}
	if fill3 <= f0 {
		t.Fatalf("third miss fill %d should follow earliest fill %d", fill3, f0)
	}
	st := h.Stats()
	if st.MSHRFullEvents != 1 || st.MSHRWaitCycles <= 0 {
		t.Fatalf("stats = %+v, want 1 full event with positive wait", st)
	}
}

// TestL2BankQueue: two L2 hits on the same bank serialize by L2Interval —
// the second sector's fill trails the first by exactly the bank's service
// occupancy.
func TestL2BankQueue(t *testing.T) {
	cfg := small()
	h := New(cfg)
	// Warm lines 0 and 2 (sectors 0 and 8, both bank 0) into the L2, then
	// push them out of the tiny L1 with lines 4 and 6 (same L1 set, 2 ways).
	for _, s := range []int32{0, 8, 16, 24} {
		h.AccessLoad(0, []int32{s})
	}
	const now = int64(10000) // far enough for fills and MSHRs to drain
	warm := h.Stats()
	fill, lvl := h.AccessLoad(now, []int32{0, 8})
	if lvl != LevelL2 {
		t.Fatalf("warmed access level = %v, want l2", lvl)
	}
	// Sector 0 services at detect; sector 8 queues one L2Interval behind it.
	want := now + cfg.L1Latency + cfg.L2Interval + cfg.L2Latency
	if fill != want {
		t.Fatalf("same-bank queued fill = %d, want %d", fill, want)
	}
	if got := h.Stats().L2Hits - warm.L2Hits; got != 2 {
		t.Fatalf("L2 hits after warmup = %d, want 2", got)
	}
}

// TestDRAMRowLocality: sequential sectors in one row pay the activate
// penalty once; a far sector pays it again.
func TestDRAMRowLocality(t *testing.T) {
	h := New(small())
	h.AccessLoad(0, []int32{0})
	h.AccessLoad(0, []int32{1}) // same row (RowSectors=8)
	h.AccessLoad(0, []int32{64})
	st := h.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 {
		t.Fatalf("row stats = %+v, want 1 hit 2 misses", st)
	}
}

// TestStoreConsumesBandwidth: a write-through store that misses L2 occupies
// DRAM bandwidth, delaying a subsequent load.
func TestStoreConsumesBandwidth(t *testing.T) {
	cfg := small()
	quiet := New(cfg)
	base, _ := quiet.AccessLoad(0, []int32{200})
	busy := New(cfg)
	busy.AccessStore(0, []int32{0, 1, 2, 3})
	loaded, _ := busy.AccessLoad(0, []int32{200})
	if loaded <= base {
		t.Fatalf("load after store burst %d should exceed quiet load %d", loaded, base)
	}
	if busy.Stats().StoreSectors != 4 {
		t.Fatalf("store sectors = %d, want 4", busy.Stats().StoreSectors)
	}
}

// TestL1Eviction: filling more lines than a set holds evicts the LRU line;
// re-access of the victim misses again.
func TestL1Eviction(t *testing.T) {
	cfg := small() // 2 sets x 2 ways, 4 sectors/line
	h := New(cfg)
	// Lines 0, 2, 4 all map to set 0 (line % 2 == 0). Three distinct lines
	// into a 2-way set must evict line 0.
	var last int64
	for _, s := range []int32{0, 8, 16} {
		last, _ = h.AccessLoad(last, []int32{s})
		last += 1000 // let every fill complete and MSHRs drain
	}
	_, lvl := h.AccessLoad(last, []int32{0})
	if lvl == LevelL1 {
		t.Fatalf("evicted line still hit L1")
	}
}

// TestDeterminism: the same access sequence replayed on a fresh hierarchy
// produces identical fills, levels, and stats.
func TestDeterminism(t *testing.T) {
	seq := []access{
		{0, []int32{0, 1, 5}, false},
		{3, []int32{0}, false},
		{3, []int32{7, 8, 9}, true},
		{10, []int32{64, 65}, false},
		{200, []int32{0, 64}, false},
		{500, []int32{5, 200, 300, 400}, false},
	}
	run := func() ([]int64, []Level, Stats) {
		h := New(small())
		var fills []int64
		var lvls []Level
		for _, a := range seq {
			if a.store {
				h.AccessStore(a.now, a.sectors)
				continue
			}
			f, l := h.AccessLoad(a.now, a.sectors)
			fills = append(fills, f)
			lvls = append(lvls, l)
		}
		return fills, lvls, h.Stats()
	}
	f1, l1, s1 := run()
	f2, l2, s2 := run()
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("replay diverged:\n%v %v %+v\n%v %v %+v", f1, l1, s1, f2, l2, s2)
	}
}

// TestMaxFillMonotone: MaxFill never decreases and bounds every returned
// fill.
func TestMaxFillMonotone(t *testing.T) {
	h := New(small())
	var prev int64
	for i := int32(0); i < 20; i++ {
		fill, _ := h.AccessLoad(int64(i), []int32{i * 3})
		if fill > h.MaxFill() {
			t.Fatalf("fill %d exceeds MaxFill %d", fill, h.MaxFill())
		}
		if h.MaxFill() < prev {
			t.Fatalf("MaxFill decreased: %d -> %d", prev, h.MaxFill())
		}
		prev = h.MaxFill()
	}
}

// TestLevelString pins the CPI-stack vocabulary.
func TestLevelString(t *testing.T) {
	want := map[Level]string{
		LevelNone: "none", LevelL1: "l1", LevelL2: "l2",
		LevelDRAM: "dram", LevelMSHR: "mshr",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), s)
		}
	}
}
