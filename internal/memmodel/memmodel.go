// Package memmodel is a deterministic timing model of a GPU memory
// hierarchy: a sectored L1 data cache with a bounded MSHR file, a banked L2
// with per-bank service queues, and a simple DRAM bandwidth/row-locality
// model. It follows the structure Accel-Sim's memory-system study
// (arXiv:1810.07269) found necessary for fidelity on throughput-bound
// kernels — sector-granularity fills, MSHR merging and exhaustion, bank
// queueing — while staying an analytic queue model rather than a
// cycle-driven pipeline, which is what keeps it cheap enough to arm on
// every launch.
//
// The model is timing-only: it never carries data, only completion times.
// Callers present coalesced warp transactions (sets of sector addresses) in
// a globally deterministic order with non-decreasing timestamps, and every
// answer is a pure function of the access sequence — the property the SM's
// partitioned round loop relies on for bit-identical results at any worker
// count (requests are logged per partition during phase A and presented
// here in fixed partition order at the merge barrier, see internal/sm).
package memmodel

import (
	"fmt"
	"math/bits"
)

// Level names the hierarchy level that bounded a load's completion, the
// vocabulary of the CPI stack's memory components.
type Level uint8

// Levels, in distance order. LevelMSHR is not a place but a cause: the
// critical sector waited for a free MSHR before its miss could even start.
const (
	LevelNone Level = iota
	LevelL1
	LevelL2
	LevelDRAM
	LevelMSHR
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "l1"
	case LevelL2:
		return "l2"
	case LevelDRAM:
		return "dram"
	case LevelMSHR:
		return "mshr"
	}
	return "none"
}

// Config sizes the hierarchy. All address arithmetic is in 32-bit words
// (the SM's global-memory unit); a sector is SectorWords words.
type Config struct {
	// SectorWords is the transaction granularity in words (8 = 32 bytes).
	SectorWords int
	// LineSectors is the number of sectors per cache line (4 = 128-byte
	// lines filled at sector granularity; at most 8, the L1 mask width).
	LineSectors int

	// L1Sets and L1Ways size the sectored L1 (lines = sets x ways).
	L1Sets, L1Ways int
	// L1Latency is the L1 hit latency in cycles (tag + data + return).
	L1Latency int64
	// MSHRs bounds the in-flight L1 misses. A miss to an in-flight sector
	// merges; a new miss with the file full waits for the earliest release.
	MSHRs int

	// L2Banks is the number of independently-queued L2 banks (sector
	// address interleaved).
	L2Banks int
	// L2SetsPerBank and L2Ways size each bank's tag array.
	L2SetsPerBank, L2Ways int
	// L2Latency is the additional latency of an L2 hit over the L1 miss
	// detection point.
	L2Latency int64
	// L2Interval is each bank's service occupancy per sector in cycles
	// (1/throughput); back-to-back sectors to one bank queue behind it.
	L2Interval int64

	// DRAMLatency is the row-hit access latency beyond the L2 miss point.
	DRAMLatency int64
	// DRAMRowPenalty is added on a row-buffer miss (precharge + activate).
	DRAMRowPenalty int64
	// DRAMInterval is the device-wide bandwidth occupancy per sector in
	// cycles (1/bandwidth).
	DRAMInterval int64
	// RowSectors is the DRAM row-buffer size in sectors.
	RowSectors int
	// DRAMBanks is the number of row buffers (row state granularity).
	DRAMBanks int
}

// DefaultConfig returns a P100-flavored hierarchy, scaled to the simulator's
// single-SM model: latencies bracket the flat LatGMem=140 the SM uses when
// the model is off (L1 well under it, DRAM well over), so arming the model
// spreads the flat number into a distribution rather than shifting its
// center wholesale.
func DefaultConfig() Config {
	return Config{
		SectorWords: 8,
		LineSectors: 4,
		L1Sets:      64, L1Ways: 4, // 64 KiB of 128-byte lines
		L1Latency:     28,
		MSHRs:         32,
		L2Banks:       8,
		L2SetsPerBank: 128, L2Ways: 8, // 4 MiB total
		L2Latency: 160, L2Interval: 2,
		DRAMLatency: 220, DRAMRowPenalty: 80, DRAMInterval: 4,
		RowSectors: 32, DRAMBanks: 16,
	}
}

// Validate reports structurally impossible configurations.
func (c *Config) Validate() error {
	switch {
	case c.SectorWords < 1, c.LineSectors < 1, c.LineSectors > 8:
		return fmt.Errorf("memmodel: sector geometry %d words x %d sectors (1 to 8 sectors per line)", c.SectorWords, c.LineSectors)
	case c.L1Sets < 1, c.L1Ways < 1, c.L2Banks < 1, c.L2SetsPerBank < 1, c.L2Ways < 1:
		return fmt.Errorf("memmodel: empty cache geometry")
	case c.MSHRs < 1:
		return fmt.Errorf("memmodel: MSHR file must hold at least one miss")
	case c.L1Latency < 1, c.L2Latency < 1, c.DRAMLatency < 1:
		return fmt.Errorf("memmodel: latencies must be positive")
	case c.L2Interval < 0, c.DRAMInterval < 0, c.DRAMRowPenalty < 0:
		return fmt.Errorf("memmodel: intervals must be non-negative")
	case c.RowSectors < 1, c.DRAMBanks < 1:
		return fmt.Errorf("memmodel: DRAM row geometry %d sectors x %d banks", c.RowSectors, c.DRAMBanks)
	}
	return nil
}

// Stats counts hierarchy events for one launch. All fields are totals.
type Stats struct {
	// LoadAccesses/StoreAccesses count warp-level transactions presented;
	// LoadSectors/StoreSectors count the coalesced sectors they carried.
	LoadAccesses, StoreAccesses int64
	LoadSectors, StoreSectors   int64
	// L1Hits/L1Misses count the load sectors that did not merge, so
	// LoadSectors = L1Hits + L1Misses + MSHRMerges (stores are
	// write-through no-allocate and do not touch these).
	L1Hits, L1Misses int64
	// MSHRMerges counts load sectors that joined an in-flight miss instead
	// of issuing a new one; MSHRFullEvents counts misses that found the
	// file exhausted, and MSHRWaitCycles their total queueing delay.
	MSHRMerges, MSHRFullEvents, MSHRWaitCycles int64
	// L2Hits/L2Misses partition the L1 misses (L2Hits + L2Misses =
	// L1Misses): store probes of the L2 are not counted.
	L2Hits, L2Misses int64
	// RowHits/RowMisses partition DRAM sector accesses by row-buffer
	// locality.
	RowHits, RowMisses int64
}

// mshrEntry is one in-flight L1 miss: the cycle its fill completes and the
// level that bounded it (for merged requesters' attribution).
type mshrEntry struct {
	fill   int64
	sector int32
	level  Level
}

// bucketBits sizes the MSHR file's in-flight filter (Hier.inflight): 256
// sector buckets.
const bucketBits = 8

// bucket maps a sector to its filter bucket: the top bucketBits of a
// multiplicative hash, so sectors a power-of-two stride apart (the same
// offset in two arrays) spread over the buckets instead of sharing one.
func bucket(sector int32) uint32 { return uint32(sector) * 0x9e3779b1 >> (32 - bucketBits) }

// divisor divides by one of the hierarchy's fixed sizes: by a shift and a
// mask when the size is a power of two, as every size of DefaultConfig is,
// else by a division. Either way quo and rem give what Go's / and % give,
// so a geometry that is not a power of two times the same.
type divisor struct {
	n     uint32
	shift uint8
	pow2  bool
}

func newDivisor(n int) divisor {
	d := divisor{n: uint32(n)}
	if d.n&(d.n-1) == 0 {
		d.pow2, d.shift = true, uint8(bits.TrailingZeros32(d.n))
	}
	return d
}

// quo is x / n, truncated toward zero.
func (d divisor) quo(x int32) int32 {
	if d.pow2 {
		return (x + x>>31&int32(d.n-1)) >> d.shift
	}
	return x / int32(d.n)
}

// rem is uint32(x) % n, an index below n.
func (d divisor) rem(x int32) int {
	if d.pow2 {
		return int(uint32(x) & (d.n - 1))
	}
	return int(uint32(x) % d.n)
}

// line is one cache line's tag state. stamp is a monotone access counter
// (deterministic LRU — never wall time).
type line struct {
	stamp   int64
	tag     int32
	sectors uint8 // valid bitmap, LineSectors wide
	valid   bool
}

// Hier is the hierarchy's mutable timing state. Not safe for concurrent
// use: the SM presents all traffic from its single-threaded merge barrier.
type Hier struct {
	cfg   Config
	stats Stats

	l1 []line // L1Sets x L1Ways, way-major within a set
	l2 []line // L2Banks x L2SetsPerBank x L2Ways

	// MSHR file: a ring of at most MSHRs entries from head, ordered by
	// (fill, insertion), so the head is the earliest fill and retires in
	// O(1), equal fills retire FIFO, and an insert steps back only past
	// later fills. The ring's length is a power of two, so ringMask wraps
	// an index. inflight is an exact filter in front of the merge scan:
	// the entries in the file per sector bucket (bucket), so a sector
	// whose bucket counts none is not in flight. A count moves only when
	// an entry enters or leaves the file.
	mshr         []mshrEntry
	head, inFile int
	ringMask     int
	inflight     [1 << bucketBits]int

	// Per-bank L2 service state and device-wide DRAM bandwidth state.
	bankFree []int64
	dramFree int64
	openRow  []int32

	stamp   int64
	maxFill int64

	// The sizes every sector divides by, fixed by New.
	lineSectors, l1Sets, l2Banks, l2Sets, rowSectors, dramBanks divisor
}

// New builds a hierarchy; the configuration must Validate.
func New(cfg Config) *Hier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ring := 1
	for ring < cfg.MSHRs {
		ring <<= 1
	}
	h := &Hier{
		cfg:      cfg,
		l1:       make([]line, cfg.L1Sets*cfg.L1Ways),
		l2:       make([]line, cfg.L2Banks*cfg.L2SetsPerBank*cfg.L2Ways),
		mshr:     make([]mshrEntry, ring),
		ringMask: ring - 1,
		bankFree: make([]int64, cfg.L2Banks),
		openRow:  make([]int32, cfg.DRAMBanks),

		lineSectors: newDivisor(cfg.LineSectors),
		l1Sets:      newDivisor(cfg.L1Sets),
		l2Banks:     newDivisor(cfg.L2Banks),
		l2Sets:      newDivisor(cfg.L2SetsPerBank),
		rowSectors:  newDivisor(cfg.RowSectors),
		dramBanks:   newDivisor(cfg.DRAMBanks),
	}
	for i := range h.openRow {
		h.openRow[i] = -1
	}
	return h
}

// Stats returns the accumulated counters (a copy).
func (h *Hier) Stats() Stats { return h.stats }

// MaxFill is the latest completion cycle ever promised — the scoreboard
// horizon bound for the SM's retire invariant.
func (h *Hier) MaxFill() int64 { return h.maxFill }

// SectorOf maps a word address to its sector index.
func (h *Hier) SectorOf(addr int32) int32 { return addr / int32(h.cfg.SectorWords) }

// AccessLoad services one coalesced warp load of the given sectors at cycle
// now and returns the warp's data-ready cycle (the slowest sector) together
// with the level that bounded it. Callers must present calls with
// non-decreasing now; sectors need not be sorted or unique, but callers
// that deduplicate keep the coalescing statistics honest.
func (h *Hier) AccessLoad(now int64, sectors []int32) (int64, Level) {
	h.stats.LoadAccesses++
	h.stats.LoadSectors += int64(len(sectors))
	h.expire(now)
	ready := now + h.cfg.L1Latency // an empty transaction still pipelines
	level := LevelL1
	for _, s := range sectors {
		fill, lvl := h.loadSector(now, s)
		if fill > ready || (fill == ready && lvl > level) {
			ready, level = fill, lvl
		}
	}
	if ready > h.maxFill {
		h.maxFill = ready
	}
	return ready, level
}

// loadSector times one sector of a load. The sector's line, its sector
// within the line and its L1 set are computed once, here; its L2 bank and
// set only on a miss, in l2Access. Each set is scanned once (probe).
func (h *Hier) loadSector(now int64, sector int32) (int64, Level) {
	// In-flight misses shield the (already valid-marked) L1 sector until
	// their fill completes, so the merge check comes first. A sector has
	// at most one entry: a second miss to it merges instead.
	if h.inflight[bucket(sector)] != 0 {
		for i := 0; i < h.inFile; i++ {
			if e := &h.mshr[(h.head+i)&h.ringMask]; e.sector == sector {
				h.stats.MSHRMerges++
				return e.fill, e.level
			}
		}
	}
	lineID := h.lineSectors.quo(sector)
	sub := uint(sector - lineID*int32(h.cfg.LineSectors))
	set := h.l1Sets.rem(lineID)
	ways := h.l1[set*h.cfg.L1Ways : (set+1)*h.cfg.L1Ways]
	way, victim := probe(ways, lineID)
	if way >= 0 && ways[way].sectors&(1<<sub) != 0 {
		h.touch(&ways[way])
		h.stats.L1Hits++
		return now + h.cfg.L1Latency, LevelL1
	}
	h.stats.L1Misses++
	detect := now + h.cfg.L1Latency
	start := detect
	mshrWait := false
	if h.inFile >= h.cfg.MSHRs {
		// File exhausted: the miss queues until the earliest in-flight fill
		// releases its entry. That entry is retired now (its fill time is a
		// commitment the model keeps via the returned ready cycles).
		h.stats.MSHRFullEvents++
		if f := h.mshr[h.head].fill; f > start {
			h.stats.MSHRWaitCycles += f - start
			start = f
			mshrWait = true
		}
		h.retireHead()
	}
	fill, lvl := h.l2Access(start, sector, lineID)
	if mshrWait {
		lvl = LevelMSHR
	}
	h.insertMSHR(mshrEntry{sector: sector, fill: fill, level: lvl})
	// The sector turns valid at once; its MSHR entry shields it until the
	// fill completes.
	if way < 0 {
		way = victim
		ways[way] = line{tag: lineID, valid: true}
	}
	ways[way].sectors |= 1 << sub
	h.touch(&ways[way])
	return fill, lvl
}

// l2Access times a sector of line lineID through its L2 bank and, on a
// miss, DRAM.
func (h *Hier) l2Access(start int64, sector, lineID int32) (int64, Level) {
	bank := h.l2Banks.rem(sector)
	svc := start
	if h.bankFree[bank] > svc {
		svc = h.bankFree[bank]
	}
	h.bankFree[bank] = svc + h.cfg.L2Interval
	ways := h.l2Ways(bank, lineID)
	way, victim := probe(ways, lineID)
	if way >= 0 {
		h.touch(&ways[way])
		h.stats.L2Hits++
		return svc + h.cfg.L2Latency, LevelL2
	}
	h.stats.L2Misses++
	fill := h.dramAccess(svc+h.cfg.L2Latency, sector)
	ways[victim] = line{tag: lineID, valid: true}
	h.touch(&ways[victim])
	return fill, LevelDRAM
}

// dramAccess times a sector at the DRAM: device bandwidth serializes
// sectors, and the per-bank open row decides hit vs activate latency.
func (h *Hier) dramAccess(start int64, sector int32) int64 {
	if h.dramFree > start {
		start = h.dramFree
	}
	h.dramFree = start + h.cfg.DRAMInterval
	row := h.rowSectors.quo(sector)
	bank := h.dramBanks.rem(row)
	lat := h.cfg.DRAMLatency
	if h.openRow[bank] == row {
		h.stats.RowHits++
	} else {
		h.stats.RowMisses++
		lat += h.cfg.DRAMRowPenalty
		h.openRow[bank] = row
	}
	return start + lat
}

// AccessStore times one coalesced warp store: write-through, no-allocate.
// Stores never stall the issuing warp, but they occupy L2 bank slots and —
// when the sector misses L2 — DRAM bandwidth, so heavy store traffic slows
// subsequent loads.
func (h *Hier) AccessStore(now int64, sectors []int32) {
	h.stats.StoreAccesses++
	h.stats.StoreSectors += int64(len(sectors))
	h.expire(now)
	for _, s := range sectors {
		bank := h.l2Banks.rem(s)
		svc := now
		if h.bankFree[bank] > svc {
			svc = h.bankFree[bank]
		}
		h.bankFree[bank] = svc + h.cfg.L2Interval
		lineID := h.lineSectors.quo(s)
		ways := h.l2Ways(bank, lineID)
		if way, _ := probe(ways, lineID); way >= 0 {
			h.touch(&ways[way])
		} else {
			// No-allocate: the write drains to DRAM without installing the
			// line, consuming bandwidth and moving the row buffer.
			h.dramAccess(svc+h.cfg.L2Latency, s)
		}
	}
}

// expire retires MSHR entries whose fills completed at or before now.
// Timestamps are non-decreasing across calls, so retiring from the head
// suffices (the file is fill-ordered).
func (h *Hier) expire(now int64) {
	for h.inFile > 0 && h.mshr[h.head].fill <= now {
		h.retireHead()
	}
}

// retireHead drops the file's head entry, its earliest fill.
func (h *Hier) retireHead() {
	h.inflight[bucket(h.mshr[h.head].sector)]--
	h.head = (h.head + 1) & h.ringMask
	h.inFile--
}

// insertMSHR adds an in-flight miss keeping the file fill-ordered with
// FIFO tie-break (insertion after equal fills): the later fills at the
// tail each move one slot on, and e takes the slot the last of them left.
func (h *Hier) insertMSHR(e mshrEntry) {
	i := (h.head + h.inFile) & h.ringMask
	for n := h.inFile; n > 0; n-- {
		prev := (i - 1) & h.ringMask
		if h.mshr[prev].fill <= e.fill {
			break
		}
		h.mshr[i] = h.mshr[prev]
		i = prev
	}
	h.mshr[i] = e
	h.inFile++
	h.inflight[bucket(e.sector)]++
}

// l2Ways returns the ways of line lineID's set in L2 bank bank.
func (h *Hier) l2Ways(bank int, lineID int32) []line {
	set := h.l2Sets.rem(lineID)
	base := (bank*h.cfg.L2SetsPerBank + set) * h.cfg.L2Ways
	return h.l2[base : base+h.cfg.L2Ways]
}

// probe scans a set's ways once for line lineID. It returns the way that
// holds the line, or -1 and the way a fill of the line takes: the least
// recently stamped, ties to the lowest index (deterministic). A way is
// stamped when it is filled, so an invalid way (stamp 0) is taken before
// any valid one. The L2 tracks whole lines; sector masks matter only at
// the L1.
func probe(ways []line, lineID int32) (way, victim int) {
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineID {
			return i, -1
		}
		if ways[i].stamp < ways[victim].stamp {
			victim = i
		}
	}
	return -1, victim
}

// touch stamps a line as the most recently used.
func (h *Hier) touch(l *line) {
	h.stamp++
	l.stamp = h.stamp
}
