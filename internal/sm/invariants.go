package sm

// Dynamic self-checks on the simulator's own bookkeeping, enabled by
// Config.Verify. The timing model's credibility rests on a handful of
// conservation laws — the CPI stack partitions the cycle count exactly,
// retiring warps leave no divergence or barrier state behind, and residency
// never exceeds what the occupancy calculation admitted. Accel-Sim's
// modeling-accuracy follow-ups (arXiv:2401.10082) showed such invariants
// silently drift as simulators grow; here every perf PR runs them in CI via
// internal/verify.

import (
	"fmt"
	"strings"

	"swapcodes/internal/isa"
	"swapcodes/internal/obs/simprof"
)

// InvariantError reports dynamic SM invariant violations detected during a
// Launch with Config.Verify enabled. The launch itself ran to completion;
// the violations indict the simulator's bookkeeping, not the kernel.
type InvariantError struct {
	Kernel     string
	Violations []string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("sm: kernel %s: %d invariant violation(s): %s",
		e.Kernel, len(e.Violations), strings.Join(e.Violations, "; "))
}

func (m *machine) violatef(format string, args ...any) {
	// Bound the report: a broken conservation law tends to fire per warp or
	// per round, and the first few instances carry all the signal.
	if len(m.violations) < 32 {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
	// Pin the violation into the black box: every checker runs at the
	// barrier, so the merge ring is the right home.
	if m.frMerge != nil {
		m.frMerge.Add(simprof.Decision{Cycle: m.cycle, Warp: -1, PC: -1,
			Kind: simprof.KindViolate, Aux: int64(len(m.violations))})
	}
}

// maxLatency is the largest producer latency any scoreboard entry can carry
// on the flat-latency path (an armed memory hierarchy extends the horizon by
// its own latest promised fill — see checkWarpRetired).
func (c *Config) maxLatency() int64 {
	max := int64(1)
	for cl := isa.ClassFxP; cl <= isa.ClassSpecial; cl++ {
		if l, _ := c.latency(cl); l > max {
			max = l
		}
	}
	return max
}

// checkResidency asserts, after CTA launch, that residency stayed within
// every bound the occupancy calculation promised: CTA slots, warp slots,
// register-file words, and shared-memory words.
func (m *machine) checkResidency() {
	cfg := m.cfg
	if len(m.resident) > m.residentLimit {
		m.violatef("cycle %d: %d resident CTAs exceed occupancy limit %d",
			m.cycle, len(m.resident), m.residentLimit)
	}
	if len(m.resident) > cfg.MaxCTAs {
		m.violatef("cycle %d: %d resident CTAs exceed MaxCTAs %d",
			m.cycle, len(m.resident), cfg.MaxCTAs)
	}
	if n := m.liveWarps; n > cfg.MaxWarps {
		m.violatef("cycle %d: %d resident warps exceed MaxWarps %d", m.cycle, n, cfg.MaxWarps)
	}
	regsPerThread := m.k.NumRegs
	if g := cfg.RegAllocGranule; g > 1 {
		regsPerThread = (regsPerThread + g - 1) / g * g
	}
	if used := len(m.resident) * regsPerThread * m.warpsPerCTA * isa.WarpSize; used > cfg.RegFileWords {
		m.violatef("cycle %d: resident CTAs hold %d register words, file has %d",
			m.cycle, used, cfg.RegFileWords)
	}
	if used := len(m.resident) * m.k.SharedWords; used > cfg.SharedWords {
		m.violatef("cycle %d: resident CTAs hold %d shared words, SM has %d",
			m.cycle, used, cfg.SharedWords)
	}
}

// checkWarpRetired asserts a retiring warp left no execution state behind:
// the divergence stack fully unwound at EXIT, no barrier membership remains,
// and no scoreboard entry promises a result beyond any real pipe's latency.
func (m *machine) checkWarpRetired(w *warpState) {
	if len(w.stack) != 0 {
		m.violatef("warp %d retired with %d live divergence-stack entries", w.gid, len(w.stack))
	}
	if w.atBarrier {
		m.violatef("warp %d retired while waiting at a barrier", w.gid)
	}
	horizon := m.cycle + m.cfg.maxLatency()
	if m.mh != nil {
		// Hierarchy loads can legitimately promise results far beyond any
		// pipe latency (queueing, MSHR waits); the hierarchy's latest
		// promised fill bounds them. A sentinel (memPending) past this
		// horizon means a load was never serviced.
		if h := m.mh.MaxFill(); h > horizon {
			horizon = h
		}
	}
	for r, t := range w.regReady {
		if t > horizon {
			m.violatef("warp %d retired with scoreboard reg r%d ready at %d, beyond horizon %d",
				w.gid, r, t, horizon)
		}
	}
	for p, t := range w.predReady {
		if t > horizon {
			m.violatef("warp %d retired with scoreboard pred p%d ready at %d, beyond horizon %d",
				w.gid, p, t, horizon)
		}
	}
}

// checkLaunchEnd asserts the launch-wide conservation laws after the last
// warp retired and finalize() stamped the cycle count.
func (m *machine) checkLaunchEnd() {
	st := m.stats
	if got := st.IssueCycles + st.StallCycles(); got != st.Cycles {
		m.violatef("CPI stack does not partition the launch: issue %d + stalls %d = %d, cycles %d",
			st.IssueCycles, st.StallCycles(), got, st.Cycles)
	}
	var perClass, perCat int64
	for _, v := range st.PerClass {
		perClass += v
	}
	for _, v := range st.PerCat {
		perCat += v
	}
	if perClass != st.DynWarpInstrs || perCat != st.DynWarpInstrs {
		m.violatef("instruction accounting split: DynWarpInstrs %d, per-class sum %d, per-category sum %d",
			st.DynWarpInstrs, perClass, perCat)
	}
	if m.nextCTA != m.k.GridCTAs {
		m.violatef("launch ended with %d of %d CTAs dispatched", m.nextCTA, m.k.GridCTAs)
	}
	if m.liveWarps != 0 || len(m.resident) != 0 {
		m.violatef("launch ended with %d live warps and %d resident CTAs", m.liveWarps, len(m.resident))
	}
	if st.MaxResidentWarps > st.ResidentWarpLimit {
		m.violatef("peak residency %d warps exceeded occupancy limit %d",
			st.MaxResidentWarps, st.ResidentWarpLimit)
	}
	if st.UnknownClassOps > 0 {
		m.violatef("%d timing lookups fell back to the unknown-class default (misclassified instruction?)",
			st.UnknownClassOps)
	}
	if m.mh == nil && st.MemStallCycles() != 0 {
		m.violatef("flat-latency launch charged %d memory-hierarchy stall cycles", st.MemStallCycles())
	}
	// Per-slot stall counters must reconcile with the cycle partition: every
	// fully-idle round charged to reason X had its selected partition record
	// X in its own slot counter, and had EVERY partition bump exactly one
	// slot counter. (Equality is not expected — a partition can stall in a
	// round where another one issued, which charges IssueCycles.)
	perReason := [...]struct {
		name  string
		slots int64
		r     stallReason
	}{
		{"deps", st.StallDeps, stallDeps},
		{"throttle", st.StallThrottle, stallThrottle},
		{"barrier", st.StallBarrier, stallBarrier},
		{"nowarp", st.StallNoWarp, stallNoWarp},
	}
	var slotSum, idleSum int64
	for _, pr := range perReason {
		if pr.slots < m.idleRounds[pr.r] {
			m.violatef("stall accounting: %d %s slot stalls cannot cover %d fully-idle %s rounds",
				pr.slots, pr.name, m.idleRounds[pr.r], pr.name)
		}
		slotSum += pr.slots
		idleSum += m.idleRounds[pr.r]
	}
	if n := int64(len(m.parts)); n > 0 && slotSum < n*idleSum {
		m.violatef("stall accounting: %d slot stalls across %d schedulers cannot cover %d fully-idle rounds",
			slotSum, n, idleSum)
	}
}

// checkIdleRound audits one fully-idle round before it is charged: a full
// scoreboard rescan of every partition (warpReadyFull, which neither reads
// nor writes the scheduler slots, so the audit leaves the state it checks
// untouched) must agree that no warp can issue, must reproduce each
// partition's recorded earliest wake, and the charged reason must be the
// one mergeRound's selection rule derives from the recorded profiles. This
// is the dynamic check that the slot verdicts and the batch idle-skip never
// hide a runnable warp or charge the wrong component.
func (m *machine) checkIdleRound(charged stallReason) {
	gmin := farFuture
	for _, p := range m.parts {
		if p.issued != 0 {
			m.violatef("cycle %d: round charged as idle (%d) but partition %d issued %d instructions",
				m.cycle, charged, p.idx, p.issued)
			continue
		}
		minWake := farFuture
		eligible := 0
		reasonSeen := false
		for _, w := range p.warps {
			if w.done || w.atomHold {
				continue
			}
			eligible++
			ready, wake, r, _, _ := p.warpReadyFull(w)
			if ready {
				m.violatef("cycle %d: idle round but warp %d of partition %d can issue",
					m.cycle, w.gid, p.idx)
				continue
			}
			if wake < minWake {
				minWake = wake
			}
			if wake == p.wake && r == p.reason {
				reasonSeen = true
			}
		}
		switch {
		case minWake != p.wake:
			m.violatef("cycle %d: partition %d recorded wake %d, full rescan derives %d",
				m.cycle, p.idx, p.wake, minWake)
		case eligible == 0:
			if p.reason != stallNoWarp {
				m.violatef("cycle %d: partition %d has no eligible warp but recorded stall reason %d",
					m.cycle, p.idx, p.reason)
			}
		case !reasonSeen:
			m.violatef("cycle %d: partition %d recorded reason %d, no warp at wake %d blocks on it",
				m.cycle, p.idx, p.reason, p.wake)
		}
		if p.wake < gmin {
			gmin = p.wake
		}
	}
	// mergeRound charges the reason of the lowest-index partition achieving
	// the earliest wake.
	for _, p := range m.parts {
		if p.wake == gmin {
			if p.reason != charged {
				m.violatef("cycle %d: idle round charged reason %d, nearest-to-ready partition %d blocks on %d",
					m.cycle, charged, p.idx, p.reason)
			}
			break
		}
	}
}

// invariantErr converts accumulated violations into the launch error.
func (m *machine) invariantErr() error {
	if len(m.violations) == 0 {
		return nil
	}
	return &InvariantError{Kernel: m.k.Name, Violations: m.violations}
}
