package sm

import (
	"context"
	"fmt"
	"math"

	"swapcodes/internal/core"
	"swapcodes/internal/isa"
	"swapcodes/internal/memmodel"
	"swapcodes/internal/obs/simprof"
)

// The SM advances in deterministic epochs ("rounds"), DESIGN.md §13. Every
// round has two phases:
//
//   - Phase A: each scheduler partition independently picks and issues up to
//     IssuePerSched instructions from the warps it owns. Partitions touch
//     only their own warps, token buckets, statistics deltas, and deferred
//     event logs (global- and shared-memory stores, atomics, barrier
//     arrivals, warp exits), plus read-only shared state (kernel, config,
//     the cycle number, and memory as committed at the last barrier), so
//     no partition can observe another's effects within a round.
//   - Barrier: a merge in fixed partition order — commit deferred stores
//     and replay atomics, apply barrier arrivals and warp exits and release
//     satisfied CTA barriers, aggregate issue/stall statistics, retire
//     warps, pick the idle-skip delta, advance the cycle, and poll
//     cancellation.
//
// The epochs define when a store becomes visible: at the next barrier,
// never mid-round. Because every cross-partition interaction is confined to
// the barrier and the barrier iterates partitions in index order, phase A is
// order-free by construction and results depend only on the kernel, the
// config, and the inputs. The whole launch runs on its caller's goroutine;
// concurrency lives one level up, in the engine pool that runs launches
// side by side.

// simtEntry is one level of the per-warp reconvergence stack.
type simtEntry struct {
	pc     int32
	mask   uint32
	reconv int32 // -1 for the base entry
}

type warpState struct {
	cta       *ctaState
	idInCTA   int
	gid       int // global warp id (unique across the launch)
	sched     int // owning scheduler partition
	slot      int // index in the owning partition's warps and sched
	stack     []simtEntry
	regs      []uint32 // reg*32 + lane
	preds     [8]uint32
	regReady  []int64
	predReady [8]int64
	// regClass/predClass remember the pipe class of the last producer of
	// each register/predicate, so dependence stalls can be attributed to
	// the pipe whose latency is being waited out (the CPI-stack per-class
	// breakdown).
	regClass  []uint8
	predClass [8]uint8
	rf        *core.RegFile
	atBarrier bool
	done      bool
	// atomHold parks the warp for the rest of the round after it issues an
	// ATOM: the atomic's read-modify-write and destination write-back happen
	// at the barrier replay, and holding the warp guarantees no younger
	// instruction of the same warp runs between them.
	atomHold bool
	// regMem, parallel to regClass, remembers which memory-hierarchy level
	// bounded the last hierarchy-load producer of each register
	// (memmodel.Level; 0 for every non-hierarchy producer), so dependence
	// stalls on load results can be charged to mem.l1/l2/dram/mshr. All
	// zero when Config.MemModel is off.
	regMem []uint8
}

func (w *warpState) top() *simtEntry { return &w.stack[len(w.stack)-1] }

type ctaState struct {
	id        int
	shared    []uint32
	warps     []*warpState
	liveWarps int
	arrived   int
}

type machine struct {
	g     *GPU
	cfg   *Config
	k     *isa.Kernel
	stats *Stats

	warpsPerCTA   int
	residentLimit int
	// occCapped records that registers or shared memory capped residency
	// below the SM's warp-slot limit — the precondition for charging idle
	// cycles to the CPI stack's occupancy component.
	occCapped bool
	nextCTA   int
	resident  []*ctaState

	parts     []*partition
	liveWarps int // resident warps across all partitions

	// mh is the armed memory hierarchy (nil when Config.MemModel is off).
	// Its state advances only inside serviceMem at the barrier.
	mh *memmodel.Hier
	// unknownClass counts barrier timing lookups that hit the unknown-class
	// fallback (partitions count their own; finalize sums).
	unknownClass int64

	// prate/tokCap are the per-partition token-bucket parameters: each
	// partition gets 1/Schedulers of every pipe's issue bandwidth, so
	// aggregate throughput matches the whole-SM rate while keeping the
	// buckets partition-local.
	prate  [10]float64
	tokCap float64
	// platency mirrors prate for result latencies: the per-class table is
	// resolved through Config.latency once at launch, so the issue path is
	// an array load. Zero marks a class outside the vocabulary (valid
	// latencies are >= 1); latencyOf counts a hit on it as a fallback.
	platency [10]int64

	// ctaScratch is merge-phase scratch listing CTAs touched by this round's
	// deferred events, reused across rounds.
	ctaScratch []*ctaState

	cycle int64
	// dyn is the global dynamic warp-instruction counter driving fault
	// injection: partitions issue in index order, so the numbering is the
	// launch's issue order.
	dyn int64
	// flight/frMerge mirror GPU.Flight: frMerge is the barrier's decision
	// ring (partitions hold their own ring pointers).
	flight  *simprof.FlightRecorder
	frMerge *simprof.Ring
	// violations accumulates dynamic invariant failures when Config.Verify
	// is set (see invariants.go).
	violations []string
	// traced is the launch's set of opcodes still handed to GPU.Trace (bit
	// op): every isa.Opcode.Traced opcode under an armed tracer, less each
	// one the tracer has declined (TraceFunc).
	traced uint64

	// Machine-wide statistic accumulators kept as arrays on the hot path;
	// finalize() converts them to the public Stats maps.
	depCyc [10]int64
	thrCyc [10]int64
	// idleRounds counts fully-idle rounds by proximate stall reason (before
	// any occupancy re-attribution) — the Verify-mode reconciliation between
	// the CPI cycle partition and the per-slot stall counters. finalize
	// sums it into Stats.IdleRounds.
	idleRounds [5]int64
}

func newMachine(g *GPU, k *isa.Kernel) *machine {
	m := &machine{g: g, cfg: &g.Cfg, k: k,
		stats: &Stats{PerClass: make(map[isa.Class]int64), PerCat: make(map[isa.Category]int64),
			DepCyclesPerClass:      make(map[isa.Class]int64),
			ThrottleCyclesPerClass: make(map[isa.Class]int64)}}
	m.warpsPerCTA = (k.CTAThreads + isa.WarpSize - 1) / isa.WarpSize
	m.flight = g.Flight
	if g.Trace != nil {
		m.traced = tracedOps
	}
	return m
}

// tracedOps is the set of isa.Opcode.Traced opcodes, bit op for opcode op.
var tracedOps = func() uint64 {
	var set uint64
	for op := 0; op < 64; op++ {
		if isa.Opcode(op).Traced() {
			set |= 1 << op
		}
	}
	return set
}()

// occupancy computes the resident CTA limit from warp slots, register file
// capacity, and shared memory — the mechanism through which duplication's
// register pressure costs parallelism.
func (m *machine) occupancy() (int, error) {
	cfg := m.cfg
	lim := cfg.MaxCTAs
	if byWarps := cfg.MaxWarps / m.warpsPerCTA; byWarps < lim {
		lim = byWarps
	}
	regsPerThread := m.k.NumRegs
	if g := cfg.RegAllocGranule; g > 1 {
		regsPerThread = (regsPerThread + g - 1) / g * g
	}
	regsPerCTA := regsPerThread * m.warpsPerCTA * isa.WarpSize
	if regsPerCTA > 0 {
		if byRegs := cfg.RegFileWords / regsPerCTA; byRegs < lim {
			lim = byRegs
		}
	}
	if m.k.SharedWords > 0 {
		if byShm := cfg.SharedWords / m.k.SharedWords; byShm < lim {
			lim = byShm
		}
	}
	if lim < 1 {
		return 0, fmt.Errorf("sm: kernel %s does not fit: %d regs/thread, %d shared words",
			m.k.Name, m.k.NumRegs, m.k.SharedWords)
	}
	return lim, nil
}

// initPartitions sets up one partition per scheduler and the per-partition
// token-bucket parameters.
func (m *machine) initPartitions() {
	n := m.cfg.Schedulers
	if n < 1 {
		n = 1
	}
	m.parts = make([]*partition, n)
	m.tokCap = 8 / float64(n)
	if m.tokCap < 1 {
		m.tokCap = 1
	}
	for cl := isa.ClassFxP; cl <= isa.ClassSpecial; cl++ {
		r, ok := m.cfg.rate(cl)
		if !ok {
			m.unknownClass++
		}
		m.prate[cl] = r / float64(n)
		if l, ok := m.cfg.latency(cl); ok {
			m.platency[cl] = l
		}
	}
	for i := range m.parts {
		p := &partition{m: m, idx: i, due: parked, farDue: parked}
		for cl := range p.tokens {
			p.tokens[cl] = 1
		}
		if m.tokCap > 1 {
			p.below = 1<<(isa.ClassSpecial+1) - 1
		}
		m.parts[i] = p
	}
	if m.flight != nil {
		m.frMerge = m.flight.MergeRing()
		for i, p := range m.parts {
			p.fr = m.flight.Partition(i)
		}
	}
}

// launchCTA makes one CTA resident, assigning each warp to the currently
// least-loaded partition (ties to the lowest index). Per-warp assignment
// keeps every scheduler fed even when occupancy admits few CTAs — a CTA's
// warps can span partitions, which is why barrier arrivals, exits, and
// shared-memory stores are deferred to the merge rather than applied during
// phase A.
func (m *machine) launchCTA() {
	cta := getCTA(m.nextCTA, m.k.SharedWords)
	m.nextCTA++
	for wi := 0; wi < m.warpsPerCTA; wi++ {
		p := m.parts[0]
		for _, q := range m.parts[1:] {
			if len(q.warps) < len(p.warps) {
				p = q
			}
		}
		w := getWarp(m.k.NumRegs)
		w.cta = cta
		w.idInCTA = wi
		w.gid = cta.id*m.warpsPerCTA + wi
		w.sched = p.idx
		w.slot = len(p.warps)
		w.stack = append(w.stack[:0], simtEntry{pc: 0, mask: m.warpMask(wi), reconv: -1})
		if m.cfg.ECC {
			w.rf = core.NewRegFile(m.cfg.Org, m.k.NumRegs, isa.WarpSize)
		}
		cta.warps = append(cta.warps, w)
		p.stale |= 1 << uint(len(p.warps))
		p.warps = append(p.warps, w)
		p.sched = append(p.sched, schedSlot{})
		if p.fr != nil {
			p.fr.Add(simprof.Decision{Cycle: m.cycle, Warp: int32(w.gid), PC: -1,
				Kind: simprof.KindResident})
		}
	}
	cta.liveWarps = len(cta.warps)
	m.resident = append(m.resident, cta)
	m.liveWarps += len(cta.warps)
	if m.liveWarps > m.stats.MaxResidentWarps {
		m.stats.MaxResidentWarps = m.liveWarps
	}
}

// warpMask returns the active-lane mask for warp wi of a CTA (the last warp
// may be partial).
func (m *machine) warpMask(wi int) uint32 {
	remaining := m.k.CTAThreads - wi*isa.WarpSize
	if remaining >= isa.WarpSize {
		return ^uint32(0)
	}
	return (uint32(1) << uint(remaining)) - 1
}

const farFuture = int64(math.MaxInt64 / 4)

// depsReady is the scheduler-slot sentinel for "operands satisfied, class in
// the slot, only the token bucket left to check" (see pick).
const depsReady = int64(-1)

// parked is the scheduler-slot wake of a done or atomHold-parked warp, which
// no scheduler set files. It lies above every live wake (farFuture,
// memPending, any throttle wake), so it also stands for "none" as a
// partition's earliest wake.
const parked = int64(math.MaxInt64)

func (m *machine) run(ctx context.Context) error {
	if err := m.armMemHier(); err != nil {
		return err
	}
	lim, err := m.occupancy()
	if err != nil {
		return err
	}
	m.residentLimit = lim
	// The slot limit is what the SM would hold were registers and shared
	// memory free; running below it means occupancy was resource-capped.
	slotLim := m.cfg.MaxCTAs
	if byWarps := m.cfg.MaxWarps / m.warpsPerCTA; byWarps < slotLim {
		slotLim = byWarps
	}
	m.occCapped = lim < slotLim
	m.stats.ResidentWarpLimit = lim * m.warpsPerCTA
	m.initPartitions()

	if m.flight != nil {
		// Black-box a panic before it unwinds past the launch: the bundle
		// then carries the decisions leading up to it.
		defer func() {
			if r := recover(); r != nil {
				m.failFlight(fmt.Sprintf("panic: %v", r))
				panic(r)
			}
		}()
	}
	err = m.loop(ctx)
	if err != nil && !stoppedByContext(err) && m.flight != nil {
		// Any non-cancellation launch failure — invariant violations,
		// deadlock, cycle-budget trip, partition errors — stamps the flight
		// recorder so the caller can dump a replayable bundle.
		m.failFlight(err.Error())
	}
	return err
}

// failFlight records the failing launch's identity on the flight recorder:
// kernel/scheme select the exact code (compilation is deterministic), and
// the config copy replays the same machine, which by the §13 determinism
// argument reaches the same failure at the same cycle.
func (m *machine) failFlight(reason string) {
	m.flight.Fail(m.k.Name, m.k.Scheme, m.cycle, *m.cfg, reason)
}

// loop is the round loop; run() does setup so tests can drive loop directly.
func (m *machine) loop(ctx context.Context) error {
	guard := int64(0)
	for {
		// Poll cancellation sparsely: a ctx.Err() load every 4096 scheduler
		// rounds is far below the simulator's per-round cost but bounds the
		// stop latency of a cancelled launch to microseconds.
		if guard&4095 == 0 {
			if err := ctx.Err(); err != nil {
				m.finalize()
				return fmt.Errorf("sm: kernel %s stopped at cycle %d: %w", m.k.Name, m.cycle, err)
			}
		}
		launched := false
		for len(m.resident) < m.residentLimit && m.nextCTA < m.k.GridCTAs {
			m.launchCTA()
			launched = true
		}
		if launched && m.cfg.Verify {
			m.checkResidency()
		}
		if m.liveWarps == 0 {
			if m.nextCTA >= m.k.GridCTAs {
				break
			}
			// Nothing resident yet CTAs remain: every iteration of this
			// relaunch path still goes through the guard, so the
			// cancellation poll and cycle guard above cannot be starved.
			guard++
			if guard > 1<<34 {
				return fmt.Errorf("sm: kernel %s exceeded cycle guard", m.k.Name)
			}
			continue
		}

		// Phase A: partitions issue independently.
		for _, p := range m.parts {
			p.step()
		}

		// Barrier: merge in fixed partition order.
		done, err := m.mergeRound()
		if err != nil {
			return err
		}
		if done {
			break
		}

		guard++
		if guard > 1<<34 {
			return fmt.Errorf("sm: kernel %s exceeded cycle guard", m.k.Name)
		}
		if m.cfg.MaxCycles > 0 && m.cycle > m.cfg.MaxCycles {
			m.finalize()
			return fmt.Errorf("sm: kernel %s exceeded the %d-cycle budget (likely non-terminating)",
				m.k.Name, m.cfg.MaxCycles)
		}
	}
	m.finalize()
	if m.cfg.Verify {
		m.checkLaunchEnd()
		return m.invariantErr()
	}
	return nil
}

// mergeRound is the epoch barrier: the only place cross-partition state is
// touched, always in ascending partition order.
func (m *machine) mergeRound() (bool, error) {
	// 1. Partition errors abort the round before anything commits; the
	// lowest-index partition's error wins, deterministically.
	for _, p := range m.parts {
		if p.err != nil {
			return false, p.err
		}
	}
	// 2. Commit deferred global- and shared-memory writes and replay
	// atomics in partition order, preserving each partition's program order.
	for _, p := range m.parts {
		if len(p.wlog) > 0 {
			p.commitMem()
		}
		if len(p.slog) > 0 {
			p.commitShared()
		}
	}
	// 2b. Service deferred memory-hierarchy transactions in partition order,
	// finalizing the pending-load scoreboard sentinels — before CTA events
	// and retirement, so a warp that issued its last load and EXITed this
	// round retires with concrete ready times.
	if m.mh != nil {
		m.serviceMem()
	}
	// 3. Apply deferred CTA events (barrier arrivals, warp exits) in
	// partition order, then release any barrier whose live warps have all
	// arrived.
	m.applyCTAEvents()
	// 4. Aggregate the round.
	issued := 0
	anyRetired := false
	for _, p := range m.parts {
		issued += p.issued
		if p.retired > 0 {
			anyRetired = true
		}
	}
	if anyRetired {
		m.retire()
	}
	// 5. Idle-skip: when no partition issued, jump to the earliest wake
	// across partitions and charge the skipped cycles to the blocking
	// reason of the nearest-to-ready warp.
	delta := int64(1)
	reason := stallNone
	if issued == 0 {
		minWake := farFuture
		minClass := isa.ClassFxP
		minMem := uint8(0)
		for _, p := range m.parts {
			if p.wake < minWake || reason == stallNone {
				minWake, reason, minClass, minMem = p.wake, p.reason, p.class, p.memc
			}
		}
		if minWake == farFuture {
			return false, fmt.Errorf("sm: kernel %s deadlocked at cycle %d", m.k.Name, m.cycle)
		}
		delta = minWake - m.cycle
		if delta < 1 {
			delta = 1
		}
		if m.cfg.Verify {
			m.checkIdleRound(reason)
		}
		m.idleRounds[reason]++
		m.chargeIdle(reason, minClass, minMem, delta)
	} else {
		m.stats.IssueCycles += delta
	}
	if m.frMerge != nil {
		if issued == 0 {
			m.frMerge.Add(simprof.Decision{Cycle: m.cycle, Warp: -1, PC: -1,
				Kind: simprof.KindSkip, Reason: uint8(reason), Aux: delta})
		} else {
			m.frMerge.Add(simprof.Decision{Cycle: m.cycle, Warp: -1, PC: -1,
				Kind: simprof.KindMerge, Aux: int64(issued)})
		}
	}
	// 6. Advance time and refill every partition's token buckets.
	m.cycle += delta
	for _, p := range m.parts {
		p.refill(delta)
	}
	return m.liveWarps == 0 && m.nextCTA >= m.k.GridCTAs, nil
}

// applyCTAEvents moves the round's deferred barrier arrivals and warp exits
// onto their CTAs in partition order, then runs the barrier release check on
// every touched CTA: once all of a CTA's still-live warps have arrived, every
// waiting warp is released (and its scheduler slot invalidated). Batching
// arrivals, exits, and releases at the merge is what makes the outcome
// independent of the order partitions ran in phase A — and it also covers
// the exit-releases-barrier case (the last non-waiting warp exits,
// satisfying the barrier).
func (m *machine) applyCTAEvents() {
	touched := m.ctaScratch[:0]
	for _, p := range m.parts {
		for _, ev := range p.events {
			if ev.arrive {
				ev.cta.arrived++
			} else {
				ev.cta.liveWarps--
			}
			touched = append(touched, ev.cta)
		}
		p.events = p.events[:0]
	}
	for _, c := range touched {
		// Idempotent across duplicate entries: a released CTA has arrived==0.
		if c.arrived > 0 && c.arrived >= c.liveWarps {
			for _, w := range c.warps {
				if w.atBarrier {
					w.atBarrier = false
					m.parts[w.sched].invalidate(w.slot)
				}
			}
			c.arrived = 0
		}
	}
	m.ctaScratch = touched[:0]
}

// finalize stamps the cycle count and folds the per-partition statistic
// deltas into the public Stats; every run() exit path (completion and
// cancellation) goes through it.
func (m *machine) finalize() {
	m.stats.Cycles = m.cycle
	m.stats.UnknownClassOps = m.unknownClass
	for _, n := range m.idleRounds {
		m.stats.IdleRounds += n
	}
	m.stats.PartitionInstrs = make([]int64, len(m.parts))
	if m.mh != nil {
		mst := m.mh.Stats()
		m.stats.Mem = &mst
	}
	for i, p := range m.parts {
		m.stats.PartitionInstrs[i] = p.instrs
		m.stats.DynWarpInstrs += p.instrs
		m.stats.StallDeps += p.stallDeps
		m.stats.StallThrottle += p.stallThrottle
		m.stats.StallBarrier += p.stallBarrier
		m.stats.StallNoWarp += p.stallNoWarp
		m.stats.UnknownClassOps += p.unknownClass
		if p.trapped {
			m.stats.Trapped = true
		}
		for cl, v := range p.perClass {
			if v != 0 {
				m.stats.PerClass[isa.Class(cl)] += v
			}
		}
		for cat, v := range p.perCat {
			if v != 0 {
				m.stats.PerCat[isa.Category(cat)] += v
			}
		}
	}
	for cl, v := range m.depCyc {
		if v != 0 {
			m.stats.DepCyclesPerClass[isa.Class(cl)] += v
		}
	}
	for cl, v := range m.thrCyc {
		if v != 0 {
			m.stats.ThrottleCyclesPerClass[isa.Class(cl)] += v
		}
	}
}

// retire removes finished warps from their partitions, compacting the
// scheduler slots alongside, renumbering the survivors' slot indices and
// refiling them in the scheduler sets, and recycles completed CTAs.
// (liveWarps is decremented at EXIT time so barrier release logic sees it
// immediately; m.liveWarps tracks resident warps and drops here.)
func (m *machine) retire() {
	for _, p := range m.parts {
		if p.retired == 0 {
			continue
		}
		live := p.warps[:0]
		sched := p.sched[:0]
		stale := p.stale
		p.clearSets()
		for j, w := range p.warps {
			if w.done {
				if m.cfg.Verify {
					m.checkWarpRetired(w)
				}
				if m.g.RetireHook != nil {
					m.g.RetireHook(w.cta.id, w.idInCTA, w.regs, w.preds[:])
				}
				m.liveWarps--
				continue
			}
			k := len(live)
			w.slot = k
			live = append(live, w)
			sched = append(sched, p.sched[j])
			switch {
			case stale&(1<<uint(j)) != 0:
				p.stale |= 1 << uint(k)
			case sched[k].wake != parked:
				p.place(k)
			}
		}
		p.warps = live
		p.sched = sched
		p.retired = 0
	}
	res := m.resident[:0]
	for _, c := range m.resident {
		if c.liveWarps > 0 {
			res = append(res, c)
			continue
		}
		// All warps retired this barrier or earlier; the CTA and its warps
		// go back to the scratch pools.
		putCTA(c)
	}
	m.resident = res
}

// chargeIdle attributes one fully-idle round of delta cycles to a CPI-stack
// component. Dependence and warp-starvation idles while the SM is
// occupancy-capped with CTAs still waiting for residency are charged to the
// occupancy component: the warps the cap denied could have covered that
// latency, which is exactly how register pressure becomes cycles. Throttle
// and barrier idles keep their proximate reason — more resident warps
// neither relieve a saturated issue pipe nor release a barrier earlier.
// Dependence and throttle charges are additionally sub-attributed to the
// pipe class being waited on.
//
// A dependence idle whose nearest-to-ready warp waits on a hierarchy load
// (memc != 0, only possible with MemModel armed) is charged to that load's
// bounding level instead — taking precedence over BOTH the generic deps
// component and the occupancy re-attribution, because "which level of the
// memory system is the latency in" is the question the memory CPI stack
// exists to answer, and occupancy-capped memory-bound kernels are its
// primary subject.
func (m *machine) chargeIdle(reason stallReason, cl isa.Class, memc uint8, delta int64) {
	if reason == stallDeps && memc != 0 {
		switch memmodel.Level(memc) {
		case memmodel.LevelL2:
			m.stats.StallCyclesMemL2 += delta
		case memmodel.LevelDRAM:
			m.stats.StallCyclesMemDRAM += delta
		case memmodel.LevelMSHR:
			m.stats.StallCyclesMemMSHR += delta
		default:
			m.stats.StallCyclesMemL1 += delta
		}
		return
	}
	if m.occCapped && m.nextCTA < m.k.GridCTAs && (reason == stallDeps || reason == stallNoWarp) {
		m.stats.StallCyclesOccupancy += delta
		return
	}
	switch reason {
	case stallDeps:
		m.stats.StallCyclesDeps += delta
		m.depCyc[cl] += delta
	case stallThrottle:
		m.stats.StallCyclesThrottle += delta
		m.thrCyc[cl] += delta
	case stallBarrier:
		m.stats.StallCyclesBarrier += delta
	default:
		m.stats.StallCyclesNoWarp += delta
	}
}

// stallReason classifies why a warp could not issue.
type stallReason uint8

const (
	stallNone stallReason = iota
	stallDeps
	stallThrottle
	stallBarrier
	stallNoWarp
)
