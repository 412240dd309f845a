package sm

import (
	"fmt"

	"swapcodes/internal/isa"
	"swapcodes/internal/obs"
)

// smObs is the machine's observability state, allocated only when the GPU
// carries a recorder (GPU.Obs). Everything here is off the disabled hot
// path: a machine without a recorder holds a nil *smObs and the cycle loop
// pays a single nil-check branch per scheduler round (the guarantee
// BenchmarkSMObsDisabled guards).
//
// Registry instruments are labeled per kernel x scheme through obs.Name
// (DESIGN.md section 8): sm.cycles{kernel,scheme},
// sm.stall_cycles{kernel,scheme,reason}, ... so repeated launches of the
// same (kernel, scheme) pair accumulate into one series while different
// schemes never alias. Aggregate views sum the family
// (Registry.SumCounters).
type smObs struct {
	rec *obs.Recorder
	pid int64
	// kernel/scheme are the label values every instrument of this launch
	// carries.
	kernel, scheme string
	// period is the sampling window in cycles; counter samples (occupancy,
	// issue-slot usage, stall attribution) are emitted once per window.
	period   int64
	winStart int64
	// Window accumulators, reset at every sample.
	winIssued int64
	winStall  [4]int64 // indexed stallReason-1: deps, throttle, barrier, nowarp

	scoreWait *obs.Histogram
	detectLat *obs.Histogram
	cycles    *obs.Counter
	instrs    *obs.Counter
	warpsRun  *obs.Counter

	// Per-partition trace-thread state, active only when GPU.Prof is armed
	// alongside the recorder: one thread row per partition plus a merge row,
	// fed one span per sample window (see sampleParts).
	partsNamed                           bool
	prevIssued, prevIdle                 []int64
	prevRounds, prevIdleRounds, prevSkip int64
}

// Partition trace threads use high tids so they never collide with per-warp
// lifetime rows (tid = global warp id).
const (
	mergeTID    = int64(1)<<20 - 1
	partTIDBase = int64(1) << 20
)

func newSMObs(rec *obs.Recorder, k *isa.Kernel) *smObs {
	period := rec.SamplePeriod
	if period < 1 {
		period = obs.DefaultSamplePeriod
	}
	scheme := k.Scheme
	if scheme == "" {
		scheme = "none"
	}
	reg := rec.Registry()
	kv := []string{"kernel", k.Name, "scheme", scheme}
	return &smObs{
		rec:    rec,
		pid:    rec.UniqueProcess("sm:" + k.Name),
		kernel: k.Name,
		scheme: scheme,
		period: period,
		// Scoreboard waits are bounded by the global-memory latency tail
		// (~140 cycles by default); detection latency by kernel length.
		scoreWait: reg.Histogram(obs.Name("sm.scoreboard_wait_cycles", kv...), obs.ExpBounds(1, 12)...),
		detectLat: reg.Histogram(obs.Name("sm.detect_latency_cycles", kv...), obs.ExpBounds(1, 16)...),
		cycles:    reg.Counter(obs.Name("sm.cycles", kv...)),
		instrs:    reg.Counter(obs.Name("sm.warp_instrs", kv...)),
		warpsRun:  reg.Counter(obs.Name("sm.warps_retired", kv...)),
	}
}

// round folds one scheduler round into the window accumulators and emits
// the window's counter samples when the cycle crosses a period boundary.
// delta is the cycles the round advanced; reason attributes fully-idle
// rounds (issued == 0) to the blocking cause of the nearest-to-ready warp.
func (o *smObs) round(m *machine, issued int, delta int64, reason stallReason) {
	o.winIssued += int64(issued)
	if issued == 0 && reason != stallNone {
		o.winStall[reason-1] += delta
		if reason == stallDeps {
			o.scoreWait.Observe(delta)
		}
	}
	if m.cycle-o.winStart >= o.period {
		o.sample(m)
	}
}

// sample flushes the current window as counter events at the present cycle.
func (o *smObs) sample(m *machine) {
	win := m.cycle - o.winStart
	if win <= 0 {
		return
	}
	o.cycles.Add(win)
	o.instrs.Add(o.winIssued)
	slots := int64(m.cfg.Schedulers) * int64(max(m.cfg.IssuePerSched, 1)) * win
	o.rec.Sample(o.pid, "sm.occupancy", m.cycle, map[string]any{
		"warps": m.liveWarps, "ctas": len(m.resident)})
	o.rec.Sample(o.pid, "sm.issue_slots", m.cycle, map[string]any{
		"issued": o.winIssued, "total": slots})
	o.rec.Sample(o.pid, "sm.stall_cycles", m.cycle, map[string]any{
		"deps": o.winStall[0], "throttle": o.winStall[1],
		"barrier": o.winStall[2], "nowarp": o.winStall[3]})
	if m.prof != nil {
		o.sampleParts(m, o.winStart)
	}
	o.winStart = m.cycle
	o.winIssued = 0
	o.winStall = [4]int64{}
}

// sampleParts emits the window's per-partition activity as one span per
// partition trace thread, plus a merge-thread span carrying the barrier's
// round/idle-skip profile — in the Chrome viewer the merge row sits
// between the partition rows' issue work.
func (o *smObs) sampleParts(m *machine, winStart int64) {
	if !o.partsNamed {
		o.partsNamed = true
		o.rec.ThreadName(o.pid, mergeTID, "merge")
		for _, p := range m.parts {
			o.rec.ThreadName(o.pid, partTIDBase+int64(p.idx), fmt.Sprintf("partition %d", p.idx))
		}
		o.prevIssued = make([]int64, len(m.parts))
		o.prevIdle = make([]int64, len(m.parts))
	}
	dur := m.cycle - winStart
	for i, p := range m.parts {
		idle := p.stallDeps + p.stallThrottle + p.stallBarrier + p.stallNoWarp
		o.rec.Span(o.pid, partTIDBase+int64(i), "phase A", "simprof", winStart, dur,
			map[string]any{
				"issued":      p.instrs - o.prevIssued[i],
				"idle_rounds": idle - o.prevIdle[i],
				"warps":       len(p.warps),
			})
		o.prevIssued[i], o.prevIdle[i] = p.instrs, idle
	}
	lp := m.prof
	o.rec.Span(o.pid, mergeTID, "merge", "simprof", winStart, dur,
		map[string]any{
			"rounds":         lp.Rounds - o.prevRounds,
			"idle_rounds":    lp.IdleRounds - o.prevIdleRounds,
			"skipped_cycles": lp.SkippedCycles - o.prevSkip,
		})
	o.prevRounds, o.prevIdleRounds, o.prevSkip = lp.Rounds, lp.IdleRounds, lp.SkippedCycles
}

// warpDone emits the retiring warp's lifetime span: one row per warp
// (tid = global warp id), covering launch to retirement in cycles.
func (o *smObs) warpDone(m *machine, w *warpState) {
	o.warpsRun.Inc()
	o.rec.Span(o.pid, int64(w.gid), fmt.Sprintf("cta%d.w%d", w.cta.id, w.idInCTA),
		"warp", w.startCycle, m.cycle-w.startCycle, nil)
}

// due records one pipeline-DUE detection: the latency histogram measures
// cycles from fault write-back to the flagging register read (the paper's
// containment property — detection strictly precedes any dependent store).
func (o *smObs) due(m *machine, r isa.Reg, lane int) {
	if m.faultCycle >= 0 {
		o.detectLat.Observe(m.cycle - m.faultCycle)
	}
	o.rec.Instant(o.pid, 0, "pipeline DUE", "due", m.cycle,
		map[string]any{"reg": r.String(), "lane": lane})
}

// finish flushes the trailing partial window, the lifetime spans of
// still-resident warps, and the launch's CPI-stack counters — called on
// every run() exit path so cancelled launches leave a coherent partial
// trace and a complete-so-far cycle partition.
func (o *smObs) finish(m *machine) {
	o.sample(m)
	for _, p := range m.parts {
		for _, w := range p.warps {
			if !w.done {
				o.warpDone(m, w)
			}
		}
	}
	// CPI-stack counters land once per launch (cold path: Registry lookup
	// is fine here). The reason dimension uses the cpistack component
	// vocabulary so /metrics scrapes line up with the -exp cpistack tables.
	reg := o.rec.Registry()
	st := m.stats
	for reason, v := range map[string]int64{
		"deps": st.StallCyclesDeps, "throttle": st.StallCyclesThrottle,
		"barrier": st.StallCyclesBarrier, "nowarp": st.StallCyclesNoWarp,
		"occupancy": st.StallCyclesOccupancy,
		"mem.l1":    st.StallCyclesMemL1, "mem.l2": st.StallCyclesMemL2,
		"mem.dram": st.StallCyclesMemDRAM, "mem.mshr": st.StallCyclesMemMSHR,
	} {
		if v > 0 {
			reg.Counter(obs.Name("sm.stall_cycles",
				"kernel", o.kernel, "scheme", o.scheme, "reason", reason)).Add(v)
		}
	}
	if st.IssueCycles > 0 {
		reg.Counter(obs.Name("sm.issue_cycles",
			"kernel", o.kernel, "scheme", o.scheme)).Add(st.IssueCycles)
	}
	// Unknown-class fallbacks are a simulator-health signal, not a kernel
	// one: any nonzero count means some instruction's timing was a guess.
	if st.UnknownClassOps > 0 {
		reg.Counter(obs.Name("sm.unknown_class",
			"kernel", o.kernel, "scheme", o.scheme)).Add(st.UnknownClassOps)
	}
}
