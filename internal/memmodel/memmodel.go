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

import "fmt"

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

// line is one cache line's tag state. stamp is a monotone access counter
// (deterministic LRU — never wall time).
type line struct {
	tag     int32
	sectors uint8 // valid bitmap, LineSectors wide
	stamp   int64
	valid   bool
}

// Hier is the hierarchy's mutable timing state. Not safe for concurrent
// use: the SM presents all traffic from its single-threaded merge barrier.
type Hier struct {
	cfg   Config
	stats Stats

	l1 []line // L1Sets x L1Ways, way-major within a set
	l2 []line // L2Banks x L2SetsPerBank x L2Ways

	// MSHR file: at most MSHRs entries ordered by (fill, insertion), so
	// the head is the earliest fill and equal fills retire FIFO. The file
	// is small (tens of entries): inserts and merge lookups just scan it.
	mshr []mshrEntry

	// Per-bank L2 service state and device-wide DRAM bandwidth state.
	bankFree []int64
	dramFree int64
	openRow  []int32

	stamp   int64
	maxFill int64
}

// New builds a hierarchy; the configuration must Validate.
func New(cfg Config) *Hier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hier{
		cfg:      cfg,
		l1:       make([]line, cfg.L1Sets*cfg.L1Ways),
		l2:       make([]line, cfg.L2Banks*cfg.L2SetsPerBank*cfg.L2Ways),
		mshr:     make([]mshrEntry, 0, cfg.MSHRs),
		bankFree: make([]int64, cfg.L2Banks),
		openRow:  make([]int32, cfg.DRAMBanks),
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

// loadSector times one sector of a load.
func (h *Hier) loadSector(now int64, sector int32) (int64, Level) {
	// In-flight misses shield the (already valid-marked) L1 sector until
	// their fill completes, so the merge check comes first.
	for i := range h.mshr {
		if e := &h.mshr[i]; e.sector == sector {
			h.stats.MSHRMerges++
			return e.fill, e.level
		}
	}
	if h.l1Hit(sector) {
		h.stats.L1Hits++
		return now + h.cfg.L1Latency, LevelL1
	}
	h.stats.L1Misses++
	detect := now + h.cfg.L1Latency
	start := detect
	mshrWait := false
	if len(h.mshr) >= h.cfg.MSHRs {
		// File exhausted: the miss queues until the earliest in-flight fill
		// releases its entry. That entry is retired now (its fill time is a
		// commitment the model keeps via the returned ready cycles).
		h.stats.MSHRFullEvents++
		if f := h.mshr[0].fill; f > start {
			h.stats.MSHRWaitCycles += f - start
			start = f
			mshrWait = true
		}
		h.retire(1)
	}
	fill, lvl := h.l2Access(start, sector)
	if mshrWait {
		lvl = LevelMSHR
	}
	h.insertMSHR(mshrEntry{sector: sector, fill: fill, level: lvl})
	h.l1Fill(sector)
	return fill, lvl
}

// l2Access times a sector through its L2 bank and, on a miss, DRAM.
func (h *Hier) l2Access(start int64, sector int32) (int64, Level) {
	bank := int(uint32(sector) % uint32(h.cfg.L2Banks))
	svc := start
	if h.bankFree[bank] > svc {
		svc = h.bankFree[bank]
	}
	h.bankFree[bank] = svc + h.cfg.L2Interval
	if h.l2Hit(bank, sector) {
		h.stats.L2Hits++
		return svc + h.cfg.L2Latency, LevelL2
	}
	h.stats.L2Misses++
	fill := h.dramAccess(svc+h.cfg.L2Latency, sector)
	h.l2Fill(bank, sector)
	return fill, LevelDRAM
}

// dramAccess times a sector at the DRAM: device bandwidth serializes
// sectors, and the per-bank open row decides hit vs activate latency.
func (h *Hier) dramAccess(start int64, sector int32) int64 {
	if h.dramFree > start {
		start = h.dramFree
	}
	h.dramFree = start + h.cfg.DRAMInterval
	row := sector / int32(h.cfg.RowSectors)
	bank := int(uint32(row) % uint32(h.cfg.DRAMBanks))
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
		bank := int(uint32(s) % uint32(h.cfg.L2Banks))
		svc := now
		if h.bankFree[bank] > svc {
			svc = h.bankFree[bank]
		}
		h.bankFree[bank] = svc + h.cfg.L2Interval
		if !h.l2Hit(bank, s) {
			// No-allocate: the write drains to DRAM without installing the
			// line, consuming bandwidth and moving the row buffer.
			h.dramAccess(svc+h.cfg.L2Latency, s)
		}
	}
}

// expire retires MSHR entries whose fills completed at or before now.
// Timestamps are non-decreasing across calls, so a single front scan
// suffices (the slice is fill-ordered).
func (h *Hier) expire(now int64) {
	n := 0
	for n < len(h.mshr) && h.mshr[n].fill <= now {
		n++
	}
	h.retire(n)
}

// retire drops the file's n head entries in place, keeping the rest in order.
func (h *Hier) retire(n int) { h.mshr = h.mshr[:copy(h.mshr, h.mshr[n:])] }

// insertMSHR adds an in-flight miss keeping the slice fill-ordered with
// FIFO tie-break (insertion after equal fills).
func (h *Hier) insertMSHR(e mshrEntry) {
	i := len(h.mshr)
	for i > 0 && h.mshr[i-1].fill > e.fill {
		i--
	}
	h.mshr = append(h.mshr, mshrEntry{})
	copy(h.mshr[i+1:], h.mshr[i:])
	h.mshr[i] = e
}

// l1Hit reports whether the sector is present and valid in the L1.
func (h *Hier) l1Hit(sector int32) bool {
	lineID := sector / int32(h.cfg.LineSectors)
	sub := uint(sector % int32(h.cfg.LineSectors))
	set := int(uint32(lineID) % uint32(h.cfg.L1Sets))
	ways := h.l1[set*h.cfg.L1Ways : (set+1)*h.cfg.L1Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineID {
			if ways[i].sectors&(1<<sub) != 0 {
				h.stamp++
				ways[i].stamp = h.stamp
				return true
			}
			return false
		}
	}
	return false
}

// l1Fill marks the sector valid, allocating (and victimizing) its line if
// needed. The sector is marked immediately; the in-flight MSHR entry
// shields the window until the fill completes.
func (h *Hier) l1Fill(sector int32) {
	lineID := sector / int32(h.cfg.LineSectors)
	sub := uint(sector % int32(h.cfg.LineSectors))
	set := int(uint32(lineID) % uint32(h.cfg.L1Sets))
	fill(h.l1[set*h.cfg.L1Ways:(set+1)*h.cfg.L1Ways], lineID, sub, &h.stamp)
}

// l2Hit reports whether the sector's line is present in its L2 bank (the
// L2 tracks whole lines; sector masks matter only at the L1).
func (h *Hier) l2Hit(bank int, sector int32) bool {
	lineID := sector / int32(h.cfg.LineSectors)
	set := int(uint32(lineID) % uint32(h.cfg.L2SetsPerBank))
	base := (bank*h.cfg.L2SetsPerBank + set) * h.cfg.L2Ways
	ways := h.l2[base : base+h.cfg.L2Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineID {
			h.stamp++
			ways[i].stamp = h.stamp
			return true
		}
	}
	return false
}

// l2Fill installs the sector's line into its L2 bank.
func (h *Hier) l2Fill(bank int, sector int32) {
	lineID := sector / int32(h.cfg.LineSectors)
	set := int(uint32(lineID) % uint32(h.cfg.L2SetsPerBank))
	base := (bank*h.cfg.L2SetsPerBank + set) * h.cfg.L2Ways
	fill(h.l2[base:base+h.cfg.L2Ways], lineID, 0, &h.stamp)
}

// fill installs lineID into the way set, reusing a hit or invalid way and
// otherwise evicting the least-recently-stamped one (ties to the lowest
// way index — deterministic).
func fill(ways []line, lineID int32, sub uint, stamp *int64) {
	*stamp++
	victim := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineID {
			ways[i].sectors |= 1 << sub
			ways[i].stamp = *stamp
			return
		}
		if !ways[i].valid {
			victim = i
			ways[i].stamp = 0 // claim: invalid ways always lose the LRU scan
		}
		if ways[i].stamp < ways[victim].stamp {
			victim = i
		}
	}
	ways[victim] = line{tag: lineID, sectors: 1 << sub, stamp: *stamp, valid: true}
}
