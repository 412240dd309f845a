package memmodel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refHier is a deliberately naive reference model of Hier, the slow oracle
// of the memory tier. It follows the same L1/MSHR/L2/DRAM structure
// (DESIGN.md section 15) but shares none of Hier's data structures:
//   - every cache set is a plain list of resident lines, scanned linearly,
//     with an explicit LRU clock ticked on each touch (a set fills by
//     appending and, once full, evicts its least recently used line);
//   - the MSHR file is an unordered list searched on every request; when it
//     is exhausted the victim is the minimum by (fill, insertion seq);
//   - store probes of the L2 bump LRU but no counter.
//
// It is written for obviousness, never speed.
type refHier struct {
	cfg     Config
	stats   Stats
	maxFill int64

	clock int64       // LRU clock, ticked on every cache touch
	l1    [][]refLine // per L1 set
	l2    [][]refLine // per (L2 bank, set)

	mshrs []refMSHR // in-flight misses, in no particular order
	seq   int64     // MSHR insertion counter

	bankFree []int64       // per L2 bank: first cycle it can serve again
	dramFree int64         // device-wide: first cycle DRAM can serve again
	openRow  map[int]int32 // per DRAM bank with an open row: that row
}

type refLine struct {
	tag     int32
	valid   []bool // per sector (used by the L1 only)
	lastUse int64
}

type refMSHR struct {
	sector int32
	fill   int64
	level  Level
	seq    int64
}

func newRefHier(cfg Config) *refHier {
	return &refHier{
		cfg:      cfg,
		l1:       make([][]refLine, cfg.L1Sets),
		l2:       make([][]refLine, cfg.L2Banks*cfg.L2SetsPerBank),
		bankFree: make([]int64, cfg.L2Banks),
		openRow:  make(map[int]int32),
	}
}

// lookup returns the line holding tag in the set, or nil.
func lookup(set []refLine, tag int32) *refLine {
	for i := range set {
		if set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (r *refHier) touch(l *refLine) {
	r.clock++
	l.lastUse = r.clock
}

// install returns the line for tag in *set, allocating it — into a free way
// or over the least recently used line — if it is not resident.
func (r *refHier) install(set *[]refLine, ways int, tag int32) *refLine {
	if l := lookup(*set, tag); l != nil {
		return l
	}
	fresh := refLine{tag: tag, valid: make([]bool, r.cfg.LineSectors)}
	if len(*set) < ways {
		*set = append(*set, fresh)
		return &(*set)[len(*set)-1]
	}
	lru := 0
	for i := range *set {
		if (*set)[i].lastUse < (*set)[lru].lastUse {
			lru = i
		}
	}
	(*set)[lru] = fresh
	return &(*set)[lru]
}

func (r *refHier) l1Set(sector int32) *[]refLine {
	line := sector / int32(r.cfg.LineSectors)
	return &r.l1[int(line)%r.cfg.L1Sets]
}

func (r *refHier) l2Set(sector int32) (bank int, set *[]refLine) {
	line := sector / int32(r.cfg.LineSectors)
	bank = int(sector) % r.cfg.L2Banks
	return bank, &r.l2[bank*r.cfg.L2SetsPerBank+int(line)%r.cfg.L2SetsPerBank]
}

// bankSlot reserves the sector's L2 bank at or after cycle at and returns
// the cycle its service starts.
func (r *refHier) bankSlot(bank int, at int64) int64 {
	start := max(at, r.bankFree[bank])
	r.bankFree[bank] = start + r.cfg.L2Interval
	return start
}

// dram serves one sector at or after cycle at and returns its completion.
func (r *refHier) dram(at int64, sector int32) int64 {
	start := max(at, r.dramFree)
	r.dramFree = start + r.cfg.DRAMInterval
	row := sector / int32(r.cfg.RowSectors)
	bank := int(row) % r.cfg.DRAMBanks
	if open, ok := r.openRow[bank]; ok && open == row {
		r.stats.RowHits++
		return start + r.cfg.DRAMLatency
	}
	r.stats.RowMisses++
	r.openRow[bank] = row
	return start + r.cfg.DRAMLatency + r.cfg.DRAMRowPenalty
}

// retireCompleted drops every MSHR whose fill is at or before now.
func (r *refHier) retireCompleted(now int64) {
	var live []refMSHR
	for _, m := range r.mshrs {
		if m.fill > now {
			live = append(live, m)
		}
	}
	r.mshrs = live
}

func (r *refHier) load(now int64, sectors []int32) (int64, Level) {
	r.stats.LoadAccesses++
	r.stats.LoadSectors += int64(len(sectors))
	r.retireCompleted(now)
	type result struct {
		fill  int64
		level Level
	}
	results := []result{{now + r.cfg.L1Latency, LevelL1}} // the L1 pipeline itself
	for _, s := range sectors {
		f, l := r.loadSector(now, s)
		results = append(results, result{f, l})
	}
	// The transaction completes with its slowest sector; among the sectors
	// finishing then, the farthest level bounds it.
	ready, bound := int64(math.MinInt64), LevelNone
	for _, res := range results {
		ready = max(ready, res.fill)
	}
	for _, res := range results {
		if res.fill == ready {
			bound = max(bound, res.level)
		}
	}
	r.maxFill = max(r.maxFill, ready)
	return ready, bound
}

func (r *refHier) loadSector(now int64, sector int32) (int64, Level) {
	for _, m := range r.mshrs {
		if m.sector == sector {
			r.stats.MSHRMerges++
			return m.fill, m.level
		}
	}
	sub := int(sector) % r.cfg.LineSectors
	if l := lookup(*r.l1Set(sector), sector/int32(r.cfg.LineSectors)); l != nil && l.valid[sub] {
		r.stats.L1Hits++
		r.touch(l)
		return now + r.cfg.L1Latency, LevelL1
	}
	r.stats.L1Misses++
	start := now + r.cfg.L1Latency
	waited := false
	if len(r.mshrs) == r.cfg.MSHRs {
		r.stats.MSHRFullEvents++
		v := 0
		for i, m := range r.mshrs {
			if m.fill < r.mshrs[v].fill || m.fill == r.mshrs[v].fill && m.seq < r.mshrs[v].seq {
				v = i
			}
		}
		if f := r.mshrs[v].fill; f > start {
			r.stats.MSHRWaitCycles += f - start
			start, waited = f, true
		}
		r.mshrs[v] = r.mshrs[len(r.mshrs)-1]
		r.mshrs = r.mshrs[:len(r.mshrs)-1]
	}

	var fill int64
	var level Level
	bank, set := r.l2Set(sector)
	svc := r.bankSlot(bank, start)
	if l := lookup(*set, sector/int32(r.cfg.LineSectors)); l != nil {
		r.stats.L2Hits++
		r.touch(l)
		fill, level = svc+r.cfg.L2Latency, LevelL2
	} else {
		r.stats.L2Misses++
		fill, level = r.dram(svc+r.cfg.L2Latency, sector), LevelDRAM
		r.touch(r.install(set, r.cfg.L2Ways, sector/int32(r.cfg.LineSectors)))
	}
	if waited {
		level = LevelMSHR
	}
	r.seq++
	r.mshrs = append(r.mshrs, refMSHR{sector: sector, fill: fill, level: level, seq: r.seq})
	// The L1 sector turns valid at once; the MSHR shields it until the fill.
	l := r.install(r.l1Set(sector), r.cfg.L1Ways, sector/int32(r.cfg.LineSectors))
	l.valid[sub] = true
	r.touch(l)
	return fill, level
}

func (r *refHier) store(now int64, sectors []int32) {
	r.stats.StoreAccesses++
	r.stats.StoreSectors += int64(len(sectors))
	r.retireCompleted(now)
	for _, s := range sectors {
		bank, set := r.l2Set(s)
		svc := r.bankSlot(bank, now)
		if l := lookup(*set, s/int32(r.cfg.LineSectors)); l != nil {
			r.touch(l)
			continue
		}
		r.dram(svc+r.cfg.L2Latency, s) // write-through, no-allocate
	}
}

// access is one warp-level transaction presented to a hierarchy.
type access struct {
	now     int64
	sectors []int32
	store   bool
}

// checkEquivalent replays seq on Hier and on the reference: every load must
// return the same (fill, level), and after every transaction Stats and
// MaxFill must agree and the Stats identities must hold.
func checkEquivalent(t *testing.T, cfg Config, seq []access) {
	t.Helper()
	h, r := New(cfg), newRefHier(cfg)
	for i, a := range seq {
		if a.store {
			h.AccessStore(a.now, a.sectors)
			r.store(a.now, a.sectors)
		} else {
			hf, hl := h.AccessLoad(a.now, a.sectors)
			rf, rl := r.load(a.now, a.sectors)
			if hf != rf || hl != rl {
				t.Fatalf("config %+v\naccess %d %+v: Hier (%d, %v), reference (%d, %v)", cfg, i, a, hf, hl, rf, rl)
			}
		}
		st := h.Stats()
		if st != r.stats {
			t.Fatalf("config %+v\naccess %d %+v: Stats diverge\n  Hier %+v\n  ref  %+v", cfg, i, a, st, r.stats)
		}
		if h.MaxFill() != r.maxFill {
			t.Fatalf("config %+v\naccess %d %+v: MaxFill Hier %d, reference %d", cfg, i, a, h.MaxFill(), r.maxFill)
		}
		if st.LoadSectors != st.L1Hits+st.L1Misses+st.MSHRMerges {
			t.Fatalf("access %d: LoadSectors %d != L1Hits+L1Misses+MSHRMerges in %+v", i, st.LoadSectors, st)
		}
		if st.L2Hits+st.L2Misses != st.L1Misses {
			t.Fatalf("access %d: L2Hits+L2Misses != L1Misses in %+v", i, st)
		}
	}
}

// cfgRanges gives, per Config field in declaration order, the range
// [lo, lo+span) a fuzzed config byte maps into: small enough that random
// bytes make tiny, eviction-heavy hierarchies, wide enough to hold
// DefaultConfig.
var cfgRanges = []struct{ lo, span int }{
	{1, 8},   // SectorWords
	{1, 8},   // LineSectors
	{1, 64},  // L1Sets
	{1, 8},   // L1Ways
	{1, 64},  // L1Latency
	{1, 32},  // MSHRs
	{1, 8},   // L2Banks
	{1, 128}, // L2SetsPerBank
	{1, 8},   // L2Ways
	{1, 256}, // L2Latency
	{0, 16},  // L2Interval
	{1, 256}, // DRAMLatency
	{0, 256}, // DRAMRowPenalty
	{0, 16},  // DRAMInterval
	{1, 64},  // RowSectors
	{1, 16},  // DRAMBanks
}

// decodeConfig maps one byte per field (missing bytes read as 0) into its
// cfgRanges range.
func decodeConfig(b []byte) Config {
	var c Config
	v := reflect.ValueOf(&c).Elem()
	for i, r := range cfgRanges {
		var x int
		if i < len(b) {
			x = int(b[i])
		}
		v.Field(i).SetInt(int64(r.lo + x%r.span))
	}
	return c
}

// encodeConfig inverts decodeConfig for configs inside cfgRanges.
func encodeConfig(c Config) []byte {
	v := reflect.ValueOf(c)
	b := make([]byte, len(cfgRanges))
	for i, r := range cfgRanges {
		b[i] = byte(int(v.Field(i).Int()) - r.lo)
	}
	return b
}

// decodeStream reads transactions as unsigned varints: a header
// (store bit | sector count << 1, the count taken mod 33), the cycle delta
// from the previous transaction, then the sectors. A truncated transaction
// ends the stream. Deltas keep now non-decreasing; sectors are non-negative.
func decodeStream(b []byte) []access {
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	var seq []access
	var now int64
	for {
		hdr, ok := next()
		if !ok {
			return seq
		}
		dt, ok := next()
		if !ok {
			return seq
		}
		now += int64(dt & math.MaxUint32)
		a := access{now: now, store: hdr&1 == 1, sectors: make([]int32, (hdr>>1)%33)}
		for i := range a.sectors {
			s, ok := next()
			if !ok {
				return seq
			}
			a.sectors[i] = int32(s & math.MaxInt32)
		}
		seq = append(seq, a)
	}
}

// encodeStream inverts decodeStream.
func encodeStream(seq []access) []byte {
	var b []byte
	var now int64
	for _, a := range seq {
		hdr := uint64(len(a.sectors)) << 1
		if a.store {
			hdr |= 1
		}
		b = binary.AppendUvarint(b, hdr)
		b = binary.AppendUvarint(b, uint64(a.now-now))
		now = a.now
		for _, s := range a.sectors {
			b = binary.AppendUvarint(b, uint64(s))
		}
	}
	return b
}

// unitStreams are the access sequences of the unit tests in
// memmodel_test.go, the fuzz corpus seeds.
func unitStreams() [][]access {
	load := func(now int64, s ...int32) access { return access{now: now, sectors: s} }
	store := func(now int64, s ...int32) access { return access{now: now, sectors: s, store: true} }
	monotone := make([]access, 20) // TestMaxFillMonotone
	for i := range monotone {
		monotone[i] = load(int64(i), int32(i)*3)
	}
	return [][]access{
		{load(0, 0), load(200, 0)},                                            // TestColdMissThenHit
		{load(0, 0), load(1, 0)},                                              // TestMSHRMerge
		{load(0, 0), load(0, 100), load(0, 200)},                              // TestMSHRExhaustion
		{load(0, 0), load(0, 8), load(0, 16), load(0, 24), load(10000, 0, 8)}, // TestL2BankQueue
		{load(0, 0), load(0, 1), load(0, 64)},                                 // TestDRAMRowLocality
		{store(0, 0, 1, 2, 3), load(0, 200)},                                  // TestStoreConsumesBandwidth
		{load(0, 0), load(1200, 8), load(2400, 16), load(3600, 0)},            // TestL1Eviction
		{ // TestDeterminism
			load(0, 0, 1, 5), load(3, 0), store(3, 7, 8, 9), load(10, 64, 65),
			load(200, 0, 64), load(500, 5, 200, 300, 400),
		},
		monotone,
		ringStream(), // TestMSHRRingWraps
	}
}

// ringStream drives the MSHR ring of small() (two entries) through a wrap:
// it fills the file, inserts two misses with equal fills, retires the
// first of them (FIFO) for a third miss, which takes the ring's first slot
// again, merges into that wrapped entry and into the entry before it, and
// retires the older entry across the ring's end while the wrapped one
// stays in flight.
func ringStream() []access {
	load := func(now int64, s ...int32) access { return access{now: now, sectors: s} }
	return []access{
		load(0, 0, 4),       // two DRAM misses warm lines 0 and 1; the second fills first
		load(1000, 1, 2),    // both drained; two L2 hits on two banks fill at 1050, in order
		load(1001, 5),       // file full: retires sector 1's entry, sector 5 wraps to slot 0
		load(1002, 2, 5, 1), // merges into both entries; sector 1 is an L1 hit
		load(1060, 5, 6),    // sector 2 retires across the end; 5 merges, 6 misses
	}
}

// maxStream caps a fuzzed stream. The fuzzer minimizes every new input
// with a quadratic search, so long inputs would stall it for seconds.
const maxStream = 256

// FuzzMemModelEquivalence holds Hier to the naive reference on fuzzed
// configs and sector streams with non-decreasing now (see checkEquivalent).
// The corpus seeds are the unit tests' sequences under their small config
// and under DefaultConfig; each must survive its codec, or the seed would
// silently test something else.
func FuzzMemModelEquivalence(f *testing.F) {
	for _, cfg := range []Config{small(), DefaultConfig()} {
		if got := decodeConfig(encodeConfig(cfg)); got != cfg {
			f.Fatalf("config %+v decodes as %+v: widen cfgRanges", cfg, got)
		}
		for _, seq := range unitStreams() {
			stream := encodeStream(seq)
			if got := decodeStream(stream); !reflect.DeepEqual(got, seq) {
				f.Fatalf("stream %+v decodes as %+v", seq, got)
			}
			f.Add(encodeConfig(cfg), stream)
		}
	}
	f.Fuzz(func(t *testing.T, cfg, stream []byte) {
		checkEquivalent(t, decodeConfig(cfg), decodeStream(stream[:min(len(stream), maxStream)]))
	})
}

// TestReferenceEquivalenceRandom runs the fuzz property on a fixed set of
// random configs and streams, so the plain test run covers more than the
// corpus seeds.
func TestReferenceEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cfg := make([]byte, len(cfgRanges))
		rng.Read(cfg)
		stream := make([]byte, 1024)
		rng.Read(stream)
		checkEquivalent(t, decodeConfig(cfg), decodeStream(stream))
	}
}
