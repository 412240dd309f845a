package sm

import (
	"math/bits"

	"swapcodes/internal/isa"
	"swapcodes/internal/obs/simprof"
)

// memEvent is one deferred global-memory effect, recorded in program order
// during phase A and committed at the barrier. A nil atom is a plain store.
type memEvent struct {
	addr int32
	val  uint32
	atom *atomOp
}

// atomOp captures an ATOM at issue time: per-lane addresses and operand
// values (reads of the issuing warp's registers, which cannot change before
// the barrier because the warp is atomHold-parked). The read-modify-write
// itself happens at the barrier replay, serialized across partitions in
// partition order — concurrent atomics to one address never lose updates.
type atomOp struct {
	w      *warpState
	in     *isa.Instr
	mask   uint32
	addr   [isa.WarpSize]int32
	val    [isa.WarpSize]uint32
	cmp    [isa.WarpSize]uint32
	inject bool // armed fault targets this instruction
}

// ctaEvent is a deferred warp-lifecycle effect on a CTA that other
// partitions may share: a barrier arrival or a warp exit. Partitions log
// them during phase A; the merge applies them in partition order and then
// runs the release check, so cta.arrived/cta.liveWarps are never touched
// concurrently.
type ctaEvent struct {
	cta    *ctaState
	arrive bool // true: BAR arrival; false: warp exit
}

// smemEvent is one deferred shared-memory store (CTAs can span partitions,
// so shared memory commits at the barrier exactly like global memory).
type smemEvent struct {
	cta  *ctaState
	addr int32
	val  uint32
}

// schedSlot is one warp's scheduling verdict, kept dense in partition.sched
// and filed in one of the partition's scheduler sets (DESIGN.md §13). wake
// encodes the verdict:
//
//   - wake > cycle: the warp cannot issue before wake, for reason (a
//     dependence stall on a producer of pipe class, bounded by hierarchy
//     level mem, or a barrier). next is the pipe of the instruction it
//     waits to issue. These wakes move only when the warp issues, its
//     barrier releases, or a hierarchy load it waits on is serviced — the
//     invalidation points, which all go through invalidate.
//   - wake == depsReady: operands satisfied, next instruction of pipe class
//     (and next); only the token bucket is left to check.
//   - wake == parked: the warp is done or atomHold-parked.
//   - otherwise (0 after invalidate): stale, to rescan.
type schedSlot struct {
	wake   int64
	reason stallReason
	class  isa.Class
	mem    uint8
	next   isa.Class
}

// wheelSize is the wake wheel's horizon in cycles, a power of two: a wait
// due at most this far ahead sits in the wheel bucket of its wake, a later
// one in the far set.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// partition is one scheduler's slice of the machine: the warps it owns, its
// share of the issue bandwidth, its statistics deltas, and its deferred
// memory and CTA-event logs. During phase A a partition touches nothing
// outside itself except read-only shared state.
type partition struct {
	m     *machine
	idx   int
	warps []*warpState
	// sched is index-aligned with warps (warpState.slot): launchCTA appends
	// both, retire compacts both.
	sched  []schedSlot
	tokens [10]float64
	// below marks the token buckets under tokCap, the only ones refill
	// touches.
	below uint16

	// The scheduler sets: bit j stands for slot j, and every slot that is
	// neither parked nor stale is filed in exactly one of ready, wheel and
	// far. ready[cl] holds the depsReady slots whose next instruction
	// issues on pipe cl, and readyCls marks the non-empty ones. wheel[b]
	// holds the waits due at the one pending wake w with w&wheelMask == b,
	// wheelSum marks the non-empty buckets, and every pending wake lies in
	// [due, due+wheelSize). far holds barrier and memPending waits and
	// waits past the wheel's horizon, none due before farDue. An unlink
	// leaves both bounds as they were; nearest and expire tighten them, to
	// parked when their set is empty.
	ready       [10]uint64
	readyCls    uint16
	stale       uint64
	far         uint64
	wheel       [wheelSize]uint64
	wheelSum    [wheelSize / 64]uint64
	due, farDue int64

	// Per-round outputs, consumed by the barrier. memc carries the
	// memory-hierarchy level (memmodel.Level) the nearest-to-ready warp's
	// dependence stall waits on, 0 when the blocking producer was not a
	// hierarchy load (always 0 with MemModel off).
	issued  int
	wake    int64
	reason  stallReason
	class   isa.Class
	memc    uint8
	err     error
	retired int
	trapped bool

	// Deferred memory state: wlog (global) and slog (shared) are the
	// program-order store logs, drained at every barrier. They double as the
	// overlay this partition's own loads consult, so intra-partition
	// read-after-write within a round sees the round's stores: the logs hold
	// at most IssuePerSched instructions' worth of lanes, so a guarded
	// backward scan beats any map.
	wlog []memEvent
	slog []smemEvent
	// Deferred barrier arrivals and warp exits (see ctaEvent).
	events []ctaEvent
	// mlog is the deferred memory-hierarchy transaction log (armed MemModel
	// only; see memhier.go). loggedLoad flags that exec just logged an LDG,
	// telling issue() to park the destination on the memPending sentinel
	// instead of the flat LatGMem scoreboard update.
	mlog       []memReq
	loggedLoad bool

	// Cumulative statistics, folded into Stats by finalize().
	instrs   int64
	perClass [10]int64
	perCat   [5]int64

	stallDeps, stallThrottle, stallBarrier, stallNoWarp int64

	// unknownClass counts timing lookups that hit the unknown-class fallback
	// (see Config.latency); finalize folds it into Stats.UnknownClassOps.
	unknownClass int64

	// fr is this partition's flight-recorder ring (nil unless GPU.Flight is
	// armed), written only by this partition during phase A.
	fr *simprof.Ring
}

// step runs one round of this partition: issue up to IssuePerSched
// instructions, recording the stall profile when nothing issues. A stall
// counter bumps only when the partition issued nothing the whole round —
// one bump per scheduler per fully-idle-scheduler round, which is what the
// Verify invariant reconciles against the CPI partition.
func (p *partition) step() {
	p.issued = 0
	slots := p.m.cfg.IssuePerSched
	if slots < 1 {
		slots = 1
	}
	for slot := 0; slot < slots; slot++ {
		// Only the first slot's failed pick is read: a later one fails in a
		// round that already issued, which charges no stall.
		j, wake, reason, cl, memc := p.pick(slot == 0)
		if j < 0 {
			if slot == 0 {
				p.wake, p.reason, p.class, p.memc = wake, reason, cl, memc
			}
			break
		}
		if err := p.issue(j); err != nil {
			p.err = err
			return
		}
		p.issued++
	}
	if p.issued == 0 {
		switch p.reason {
		case stallDeps:
			p.stallDeps++
		case stallThrottle:
			p.stallThrottle++
		case stallBarrier:
			p.stallBarrier++
		default:
			p.stallNoWarp++
		}
		if p.fr != nil {
			p.fr.Add(simprof.Decision{Cycle: p.m.cycle, Warp: -1, PC: -1,
				Kind: simprof.KindStall, Reason: uint8(p.reason), Aux: p.wake})
		}
	}
}

// pick returns the slot index of the first warp in round-robin order (from
// cycle % n) that can issue, or -1. It first brings the sets up to the
// cycle, expiring the waits now due and rescanning the stale slots; the
// pick is then the first slot in rotation order in the ready set of a pipe
// that holds a token. When nothing can issue and why is set, stall reports
// what the partition waits on. Config.Reference selects pickRef, which
// computes the same answer from scratch.
func (p *partition) pick(why bool) (int, int64, stallReason, isa.Class, uint8) {
	if p.m.cfg.Reference {
		return p.pickRef()
	}
	n := len(p.sched)
	if n == 0 {
		return -1, farFuture, stallNoWarp, isa.ClassFxP, 0
	}
	cycle := p.m.cycle
	if p.due <= cycle || p.farDue <= cycle {
		p.expire(cycle)
	}
	// scan is pure, so rescanning every stale slot now gives the verdicts a
	// lazy rescan in rotation order would.
	for ; p.stale != 0; p.stale &= p.stale - 1 {
		j := bits.TrailingZeros64(p.stale)
		p.sched[j] = p.scan(p.warps[j])
		p.place(j)
	}
	var can uint64
	for cls := p.readyCls; cls != 0; cls &= cls - 1 {
		if cl := bits.TrailingZeros16(cls); p.tokens[cl] >= 1 {
			can |= p.ready[cl]
		}
	}
	if can != 0 {
		j := firstFrom(can, int(cycle%int64(n)))
		return j, 0, stallNone, p.sched[j].class, 0
	}
	if !why {
		return -1, farFuture, stallNoWarp, isa.ClassFxP, 0
	}
	wake, reason, cl, memc := p.stall(int(cycle % int64(n)))
	return -1, wake, reason, cl, memc
}

// stall is pick's report when nothing can issue: the first slot in rotation
// order from start at the earliest wake gives the wake, the stall reason,
// the pipe class that reason attributes to, and the memory-hierarchy level
// when it is a hierarchy-load dependence. The earliest wake is the nearest
// wheel bucket's, a far wait's, or the throttle wake of a pipe with ready
// slots, which every ready slot of that pipe shares.
func (p *partition) stall(start int) (int64, stallReason, isa.Class, uint8) {
	best, at := parked, uint64(0)
	if b, wake := p.nearest(); b >= 0 {
		best, at = wake, p.wheel[b]
	}
	for f := p.far; f != 0; f &= f - 1 {
		j := bits.TrailingZeros64(f)
		if wake := p.sched[j].wake; wake < best {
			best, at = wake, 1<<uint(j)
		} else if wake == best {
			at |= 1 << uint(j)
		}
	}
	for cls := p.readyCls; cls != 0; cls &= cls - 1 {
		cl := isa.Class(bits.TrailingZeros16(cls))
		if wake := p.throttleWake(cl); wake < best {
			best, at = wake, p.ready[cl]
		} else if wake == best {
			at |= p.ready[cl]
		}
	}
	if at == 0 {
		return farFuture, stallNoWarp, isa.ClassFxP, 0
	}
	s := &p.sched[firstFrom(at, start)]
	if s.wake == depsReady {
		return best, stallThrottle, s.class, 0
	}
	return s.wake, s.reason, s.class, s.mem
}

// firstFrom returns the first set bit of set (non-zero) in rotation order
// from bit start.
func firstFrom(set uint64, start int) int {
	if hi := set >> uint(start) << uint(start); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(set)
}

// place files slot j under the verdict it holds, which is neither stale
// nor parked.
func (p *partition) place(j int) {
	bit := uint64(1) << uint(j)
	s := &p.sched[j]
	switch {
	case s.wake == depsReady:
		p.ready[s.class] |= bit
		p.readyCls |= 1 << s.class
	case s.wake-p.m.cycle <= wheelSize:
		b := s.wake & wheelMask
		p.wheel[b] |= bit
		p.wheelSum[b>>6] |= 1 << (b & 63)
		p.due = min(p.due, s.wake)
	default:
		p.far |= bit
		p.farDue = min(p.farDue, s.wake)
	}
}

// unlink removes slot j from whichever set files it.
func (p *partition) unlink(j int) {
	bit := uint64(1) << uint(j)
	s := &p.sched[j]
	switch {
	case p.stale&bit != 0:
		p.stale &^= bit
	case s.wake == depsReady:
		if p.ready[s.class] &^= bit; p.ready[s.class] == 0 {
			p.readyCls &^= 1 << s.class
		}
	case p.far&bit != 0:
		p.far &^= bit
	case s.wake != parked:
		b := s.wake & wheelMask
		if p.wheel[b] &^= bit; p.wheel[b] == 0 {
			p.wheelSum[b>>6] &^= 1 << (b & 63)
		}
	}
}

// expire moves every wait due by cycle to its ready set without a rescan:
// the wheel buckets in wake order, found through wheelSum however far the
// idle skip jumped, then the far waits. This is sound because the ready
// times a wait was computed from change only when its warp issues or a
// load it issued is serviced, and both invalidate the slot: at its wake
// the warp's operands are ready, and its next instruction waits only for
// a token of its pipe.
func (p *partition) expire(cycle int64) {
	for p.due <= cycle {
		b, wake := p.nearest()
		if wake > cycle {
			break
		}
		for set := p.wheel[b]; set != 0; set &= set - 1 {
			p.toReady(bits.TrailingZeros64(set))
		}
		p.wheel[b] = 0
		p.wheelSum[b>>6] &^= 1 << (b & 63)
		p.due = wake + 1
	}
	if p.farDue <= cycle {
		p.farDue = parked
		for f := p.far; f != 0; f &= f - 1 {
			j := bits.TrailingZeros64(f)
			if wake := p.sched[j].wake; wake <= cycle {
				p.far &^= 1 << uint(j)
				p.toReady(j)
			} else {
				p.farDue = min(p.farDue, wake)
			}
		}
	}
}

// toReady files slot j, whose wait is over, as depsReady on its next pipe:
// the verdict a rescan would give.
func (p *partition) toReady(j int) {
	cl := p.sched[j].next
	p.sched[j] = schedSlot{wake: depsReady, class: cl, next: cl}
	p.ready[cl] |= 1 << uint(j)
	p.readyCls |= 1 << cl
}

// nearest returns the wheel's earliest occupied bucket and its wake (-1 and
// parked when the wheel is empty), tightening due to that wake. Pending
// wakes lie in [due, due+wheelSize), one per bucket, so the first occupied
// bucket in rotation order from due's is the earliest.
func (p *partition) nearest() (int, int64) {
	s := int(p.due & wheelMask)
	for i := 0; i <= len(p.wheelSum); i++ {
		wi := (s>>6 + i) % len(p.wheelSum)
		w := p.wheelSum[wi]
		if i == 0 {
			w &= ^uint64(0) << uint(s&63)
		}
		if w != 0 {
			b := wi<<6 | bits.TrailingZeros64(w)
			p.due += int64((b - s) & wheelMask)
			return b, p.due
		}
	}
	p.due = parked
	return -1, parked
}

// clearSets empties every scheduler set; retire refiles the survivors.
func (p *partition) clearSets() {
	for i, w := range p.wheelSum {
		for ; w != 0; w &= w - 1 {
			p.wheel[i<<6|bits.TrailingZeros64(w)] = 0
		}
	}
	p.wheelSum = [len(p.wheelSum)]uint64{}
	p.ready = [len(p.ready)]uint64{}
	p.readyCls, p.stale, p.far = 0, 0, 0
	p.due, p.farDue = parked, parked
}

// pickRef is the reference scheduler (Config.Reference): the same choice
// and the same stall profile as pick, from warpReadyFull on each live warp
// in rotation order, reading and writing no slot.
func (p *partition) pickRef() (int, int64, stallReason, isa.Class, uint8) {
	minWake := farFuture
	reason := stallNoWarp
	class := isa.ClassFxP
	memc := uint8(0)
	n := len(p.warps)
	if n == 0 {
		return -1, minWake, reason, class, memc
	}
	start := int(p.m.cycle) % n
	for i := 0; i < n; i++ {
		j := (start + i) % n
		w := p.warps[j]
		if w.done || w.atomHold {
			continue
		}
		ready, wake, r, cl, mc := p.warpReadyFull(w)
		if ready {
			return j, 0, stallNone, cl, 0
		}
		if wake < minWake || reason == stallNoWarp {
			minWake = wake
			reason = r
			class = cl
			memc = mc
		}
	}
	return -1, minWake, reason, class, memc
}

// invalidate drops slot j's verdict and marks it stale so the next pick
// rescans its warp, or parks the slot while the warp is done or
// atomHold-parked. Issue, barrier release, serviceMem and the atomic replay
// (which is how a warp unparks) call it.
func (p *partition) invalidate(j int) {
	p.unlink(j)
	if w := p.warps[j]; w.done || w.atomHold {
		p.sched[j].wake = parked
		return
	}
	p.sched[j].wake = 0
	p.stale |= 1 << uint(j)
}

// throttleWake is the cycle a pipe's empty token bucket next admits an
// issue. Throttle wakes move with every refill, so slots never cache them.
func (p *partition) throttleWake(cl isa.Class) int64 {
	need := (1 - p.tokens[cl]) / p.m.prate[cl]
	return p.m.cycle + int64(need) + 1
}

// warpReadyFull checks scoreboard and structural constraints for the warp's
// next instruction, from scratch: it is the reference scheduler's test and
// the idle-round audit's, and it reads and writes no slot. The returned
// class attributes a stall: for dependence stalls it is the pipe class of
// the producer whose result the warp waits on longest (plus, when that
// producer was a hierarchy load, the memory level that bounded it); for
// throttle stalls, the saturated pipe.
func (p *partition) warpReadyFull(w *warpState) (bool, int64, stallReason, isa.Class, uint8) {
	s := p.scan(w)
	if s.wake != depsReady {
		return false, s.wake, s.reason, s.class, s.mem
	}
	if p.tokens[s.class] < 1 {
		return false, p.throttleWake(s.class), stallThrottle, s.class, 0
	}
	return true, 0, stallNone, s.class, 0
}

// scan is the scoreboard scan behind both schedulers. It returns the
// verdict a slot caches: a barrier or dependence wake, or depsReady with
// the next instruction's pipe class.
func (p *partition) scan(w *warpState) schedSlot {
	m := p.m
	if w.atBarrier {
		// Released by the last arrival, which also invalidates the slot.
		return schedSlot{wake: farFuture, reason: stallBarrier, class: isa.ClassControl}
	}
	in := &m.k.Code[w.top().pc]
	wake := m.cycle
	blockCl := isa.ClassFxP
	// The memory level of the blocking producer is resolved once after the
	// scan (regMem[blockReg]); tracking the register instead of loading
	// regMem per update keeps the flat-latency scan at its seed cost.
	blockReg := isa.RZ

	dep := func(r isa.Reg, wide bool) {
		if r == isa.RZ {
			return
		}
		if t := w.regReady[r]; t > wake {
			wake = t
			blockCl = isa.Class(w.regClass[r])
			blockReg = r
		}
		if wide {
			if t := w.regReady[r+1]; t > wake {
				wake = t
				blockCl = isa.Class(w.regClass[r+1])
				blockReg = r + 1
			}
		}
	}
	for si, src := range in.Src {
		if si == 1 && in.HasImm {
			continue
		}
		wide := false
		switch in.Op {
		case isa.DADD, isa.DSUB, isa.DMUL:
			wide = si < 2
		case isa.DFMA:
			wide = true
		case isa.IMAD:
			wide = in.Wide && si == 2
		}
		dep(src, wide)
	}
	if in.GuardPred >= 0 && in.GuardPred < isa.PT {
		if t := w.predReady[in.GuardPred]; t > wake {
			wake = t
			blockCl = isa.Class(w.predClass[in.GuardPred])
			blockReg = isa.RZ // predicates never come from the hierarchy
		}
	}
	if wake > m.cycle {
		var blockMem uint8
		if blockReg != isa.RZ {
			blockMem = w.regMem[blockReg]
		}
		return schedSlot{wake: wake, reason: stallDeps, class: blockCl, mem: blockMem, next: in.Op.Class()}
	}
	// Operands satisfied: they stay satisfied until the warp issues.
	return schedSlot{wake: depsReady, class: in.Op.Class(), next: in.Op.Class()}
}

// issue consumes a token, executes the instruction in slot j functionally,
// updates the scoreboard, and invalidates the slot (parking it when the
// instruction was the warp's EXIT or an ATOM).
func (p *partition) issue(j int) error {
	m := p.m
	w := p.warps[j]
	pc := w.top().pc
	in := &m.k.Code[pc]
	cl := in.Op.Class()
	p.take(cl)
	p.instrs++
	p.perClass[cl]++
	p.perCat[in.Cat]++
	m.dyn++

	err := p.exec(w, in)
	if p.fr != nil {
		d := simprof.Decision{Cycle: m.cycle, Warp: int32(w.gid), PC: pc, Kind: simprof.KindIssue}
		if w.done {
			d.Aux = 1
		}
		p.fr.Add(d)
	}
	if err != nil {
		return err
	}
	p.invalidate(j)

	// Scoreboard: the destination becomes readable after the pipe latency;
	// WAW writes merge to the max (both must land before a read). A logged
	// hierarchy load instead parks its destination on the memPending
	// sentinel — serviceMem resolves it to the real fill time at this
	// round's barrier, merging against the pre-sentinel ready time kept in
	// the request (LDG destinations are never register pairs).
	if p.loggedLoad {
		p.loggedLoad = false
		if in.WritesReg() {
			req := &p.mlog[len(p.mlog)-1]
			req.dst = in.Dst
			req.prev = w.regReady[in.Dst]
			if req.prev == memPending {
				// An older same-round load to this destination still holds
				// the sentinel; its service (earlier in mlog) concretizes
				// regReady before this request reads it, so prev is unused.
				req.prev = 0
			}
			w.regReady[in.Dst] = memPending
			w.regClass[in.Dst] = uint8(cl)
		}
	} else if in.WritesReg() {
		// The sentinel checks and regMem clears live off the common path:
		// memPending is above any real completion time (so t > cur already
		// fails on it), and with the hierarchy off regMem is all-zero by
		// construction — the flat path pays only the nil check.
		t := m.cycle + p.latencyOf(cl)
		if cur := w.regReady[in.Dst]; t > cur {
			w.regReady[in.Dst] = t
		} else if cur == memPending {
			// WAW against a same-round in-flight load: fold this producer's
			// completion into the pending request so serviceMem's max keeps
			// it (overwriting the sentinel would lose the load's fill).
			p.bumpPendingPrev(w, in.Dst, t)
		}
		w.regClass[in.Dst] = uint8(cl)
		if m.mh != nil {
			w.regMem[in.Dst] = 0
		}
		if in.Is64Dst() {
			if cur := w.regReady[in.Dst+1]; t > cur {
				w.regReady[in.Dst+1] = t
			} else if cur == memPending {
				p.bumpPendingPrev(w, in.Dst+1, t)
			}
			w.regClass[in.Dst+1] = uint8(cl)
			if m.mh != nil {
				w.regMem[in.Dst+1] = 0
			}
		}
	}
	if (in.Op == isa.ISETP || in.Op == isa.FSETP) && in.DstPred >= 0 && in.DstPred < isa.PT {
		// The predicate lands with the producing pipe's latency: FSETP is a
		// ClassFP32 op, so its comparison takes the FP32 pipe's depth, not
		// the integer pipe's.
		w.predReady[in.DstPred] = m.cycle + p.latencyOf(cl)
		w.predClass[in.DstPred] = uint8(cl)
	}
	return nil
}

// latencyOf is issue's latency lookup: an array load off the table
// initPartitions resolved, with the unknown-class fallback counted
// partition-locally (phase A runs partitions concurrently) — it surfaces
// as Stats.UnknownClassOps, the sm.unknown_class metric, and a Verify
// invariant violation at launch end.
func (p *partition) latencyOf(cl isa.Class) int64 {
	if int(cl) < len(p.m.platency) {
		if l := p.m.platency[cl]; l != 0 {
			return l
		}
	}
	p.unknownClass++
	return 1
}

// bumpPendingPrev folds a non-load producer's completion time into the
// in-flight load request holding reg r's memPending sentinel (the newest
// such request wins — it is the one whose service last touches the
// register).
func (p *partition) bumpPendingPrev(w *warpState, r isa.Reg, t int64) {
	for i := len(p.mlog) - 1; i >= 0; i-- {
		req := &p.mlog[i]
		if !req.store && req.w == w && req.dst == r {
			if t > req.prev {
				req.prev = t
			}
			return
		}
	}
}

// take spends one token of pipe cl, which leaves its bucket below the cap.
func (p *partition) take(cl isa.Class) {
	p.tokens[cl]--
	p.below |= 1 << cl
}

// refill adds delta cycles of this partition's bandwidth share to every
// token bucket below its cap, called at the barrier so all partitions see
// the same global time. A bucket at the cap is skipped: with a positive,
// finite rate (Config.validate) adding to it and clamping would leave it at
// the cap.
func (p *partition) refill(delta int64) {
	m := p.m
	for b := p.below; b != 0; b &= b - 1 {
		cl := bits.TrailingZeros16(b)
		p.tokens[cl] += m.prate[cl] * float64(delta)
		if p.tokens[cl] >= m.tokCap {
			p.tokens[cl] = m.tokCap
			p.below &^= 1 << cl
		}
	}
}

// commitMem applies this partition's deferred global-memory log in program
// order: plain stores land their final values, atomics replay their
// read-modify-write against live memory (see mergeRound for the
// partition-order guarantee).
func (p *partition) commitMem() {
	m := p.m
	for i := range p.wlog {
		ev := &p.wlog[i]
		if ev.atom == nil {
			m.g.Mem[ev.addr] = ev.val
			continue
		}
		m.replayAtom(ev.atom)
	}
	p.wlog = p.wlog[:0]
}

// commitShared applies this partition's deferred shared-memory stores in
// program order.
func (p *partition) commitShared() {
	for i := range p.slog {
		ev := &p.slog[i]
		ev.cta.shared[ev.addr] = ev.val
	}
	p.slog = p.slog[:0]
}

// lookupW finds the latest same-round deferred store to a global address
// (callers guard on len(p.wlog) > 0). Pending atomics are skipped: their
// value does not exist until the barrier replay.
func (p *partition) lookupW(addr int32) (uint32, bool) {
	for i := len(p.wlog) - 1; i >= 0; i-- {
		ev := &p.wlog[i]
		if ev.atom == nil && ev.addr == addr {
			return ev.val, true
		}
	}
	return 0, false
}

// lookupS finds the latest same-round deferred store to a shared-memory
// address of one CTA (callers guard on len(p.slog) > 0).
func (p *partition) lookupS(cta *ctaState, addr int32) (uint32, bool) {
	for i := len(p.slog) - 1; i >= 0; i-- {
		ev := &p.slog[i]
		if ev.cta == cta && ev.addr == addr {
			return ev.val, true
		}
	}
	return 0, false
}

// replayAtom performs a captured ATOM's read-modify-write and destination
// write-back. The issuing warp was parked (atomHold) for the rest of its
// round, so its registers are exactly as they were at issue time and the
// old-value write-back cannot be reordered against younger instructions.
func (m *machine) replayAtom(op *atomOp) {
	w, in := op.w, op.in
	w.atomHold = false
	m.parts[w.sched].invalidate(w.slot)
	fp := m.g.Fault
	for lane := 0; lane < isa.WarpSize; lane++ {
		if op.mask&(1<<uint(lane)) == 0 {
			continue
		}
		addr := op.addr[lane]
		old := m.g.Mem[addr]
		val := op.val[lane]
		switch in.Mod {
		case isa.OpAdd:
			m.g.Mem[addr] = old + val
		case isa.OpMin:
			if int32(val) < int32(old) {
				m.g.Mem[addr] = val
			}
		case isa.OpMax:
			if int32(val) > int32(old) {
				m.g.Mem[addr] = val
			}
		case isa.OpExch:
			m.g.Mem[addr] = val
		case isa.OpCAS:
			if old == op.cmp[lane] {
				m.g.Mem[addr] = val
			}
		}
		if in.Dst != isa.RZ {
			value := old
			if op.inject && lane == fp.Lane {
				value ^= fp.BitMask
				fp.Applied, fp.Cycle = true, m.cycle
			}
			m.writeLane(w, in, int(in.Dst), lane, value, old)
		}
	}
	if op.inject && in.Dst == isa.RZ {
		fp.Applied, fp.Cycle = true, m.cycle // fault landed in a discarded result
	}
}
