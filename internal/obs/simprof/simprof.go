// Package simprof profiles the partitioned SM round loop (DESIGN.md §13/§14):
// per-partition scheduling telemetry explaining how a launch spends its
// rounds (issue and stall rounds per partition, idle-skip savings, load
// imbalance), and a flight recorder capturing the recent scheduler decisions
// of every partition so a failing launch — invariant trip, differential
// mismatch, deadlock, panic — can be replayed deterministically from a
// JSONL "black box" bundle.
//
// The package deliberately does not import internal/sm (sm imports it); the
// machine fills a LaunchProf and feeds FlightRecorder rings through narrow
// value types defined here.
package simprof

import (
	"fmt"

	"swapcodes/internal/obs"
)

// PartitionProf is one scheduler partition's share of a launch, filled by the
// machine at finalize (cumulative counters) and at each merge barrier (log
// peaks). All fields are written either by the partition during phase A or
// at the barrier, and none feeds back into the schedule.
type PartitionProf struct {
	Index int `json:"index"`
	// WarpsAssigned counts warps ever placed on this partition (the
	// least-loaded assignment's balance, observable directly).
	WarpsAssigned int64 `json:"warps_assigned"`
	// Issued is the partition's dynamic warp-instruction count.
	Issued int64 `json:"issued"`
	// Stall rounds by reason: one count per round in which this partition
	// issued nothing (the per-slot stall profile of DESIGN.md §13).
	StallDeps, StallThrottle, StallBarrier, StallNoWarp int64
	// Parked counts ATOM parkings (warps held for the rest of their round so
	// the barrier replay cannot be reordered against younger instructions).
	Parked int64 `json:"parked"`
	// Deferred-log telemetry, observed at the top of every merge barrier
	// before the logs drain: peak lengths bound the merge's per-round work.
	PeakWlog, PeakSlog, PeakEvents int
	// Total deferred entries committed across the launch.
	WlogTotal, SlogTotal, EventsTotal int64
}

// IdleRounds is the number of rounds this partition sat fully idle.
func (p *PartitionProf) IdleRounds() int64 {
	return p.StallDeps + p.StallThrottle + p.StallBarrier + p.StallNoWarp
}

// LaunchProf aggregates one launch's scheduling telemetry. Arm it by
// setting sm.GPU.Prof before Launch; read it after Launch returns. Every
// field is a deterministic function of the launch: the same kernel, config
// and inputs give the same profile, bit for bit.
type LaunchProf struct {
	Kernel string `json:"kernel"`
	Scheme string `json:"scheme"`

	Cycles int64 `json:"cycles"`
	// Rounds counts scheduler rounds (epochs); IdleRounds the fully-idle ones
	// the batch idle-skip fired on; SkippedCycles the cycles those skips
	// jumped over without running a round (delta-1 summed — the simulation
	// time idle-skip saves).
	Rounds        int64 `json:"rounds"`
	IdleRounds    int64 `json:"idle_rounds"`
	SkippedCycles int64 `json:"skipped_cycles"`

	Partitions []PartitionProf `json:"partitions"`
}

// Reset prepares the profile for a launch with n partitions, zeroing every
// accumulator. The machine calls it from initPartitions, so one LaunchProf
// can be reused across launches (the last launch wins).
func (lp *LaunchProf) Reset(n int) {
	*lp = LaunchProf{Partitions: make([]PartitionProf, n)}
	for i := range lp.Partitions {
		lp.Partitions[i].Index = i
	}
}

// ObserveLogs folds one merge barrier's deferred-log lengths for partition i.
func (lp *LaunchProf) ObserveLogs(i, wlog, slog, events int) {
	p := &lp.Partitions[i]
	if wlog > p.PeakWlog {
		p.PeakWlog = wlog
	}
	if slog > p.PeakSlog {
		p.PeakSlog = slog
	}
	if events > p.PeakEvents {
		p.PeakEvents = events
	}
	p.WlogTotal += int64(wlog)
	p.SlogTotal += int64(slog)
	p.EventsTotal += int64(events)
}

// LoadImbalance is max/mean of per-partition issued instructions — 1.0 is a
// perfectly balanced launch, 2.0 means the busiest partition carried twice
// the average.
func (lp *LaunchProf) LoadImbalance() float64 {
	if len(lp.Partitions) == 0 {
		return 1
	}
	var sum, max int64
	for i := range lp.Partitions {
		v := lp.Partitions[i].Issued
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(lp.Partitions))
	return float64(max) / mean
}

// stall reason labels, in partition slot-counter order.
var stallLabels = [4]string{"deps", "throttle", "barrier", "nowarp"}

func (p *PartitionProf) stallByReason() [4]int64 {
	return [4]int64{p.StallDeps, p.StallThrottle, p.StallBarrier, p.StallNoWarp}
}

// EmitMetrics folds the profile into a registry under the repo's labeled-
// metric convention. The {partition} label space is bounded by the scheduler
// count (≤ Config.Schedulers, itself well under the registry's per-family
// label cap), and {kernel,scheme} follow the sm instrument families, so
// /metrics and /timeseries scrapes line up with the sm.* series.
func (lp *LaunchProf) EmitMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	kv := []string{"kernel", lp.Kernel, "scheme", lp.Scheme}
	add := func(name string, v int64, extra ...string) {
		if v != 0 {
			reg.Counter(obs.Name(name, append(append([]string{}, kv...), extra...)...)).Add(v)
		}
	}
	add("simprof.rounds", lp.Rounds)
	add("simprof.idle_rounds", lp.IdleRounds)
	add("simprof.skipped_cycles", lp.SkippedCycles)
	reg.Gauge(obs.Name("simprof.load_imbalance_pct", kv...)).Set(int64(lp.LoadImbalance() * 100))
	peakLog := reg.Histogram(obs.Name("simprof.partition_deferred_peak", kv...), obs.ExpBounds(1, 12)...)
	for i := range lp.Partitions {
		p := &lp.Partitions[i]
		part := fmt.Sprintf("p%d", p.Index)
		add("simprof.partition_issued", p.Issued, "partition", part)
		add("simprof.partition_warps", p.WarpsAssigned, "partition", part)
		add("simprof.partition_parked", p.Parked, "partition", part)
		for r, v := range p.stallByReason() {
			add("simprof.partition_stall_rounds", v, "partition", part, "reason", stallLabels[r])
		}
		add("simprof.partition_deferred_entries", p.WlogTotal, "partition", part, "log", "wlog")
		add("simprof.partition_deferred_entries", p.SlogTotal, "partition", part, "log", "slog")
		add("simprof.partition_deferred_entries", p.EventsTotal, "partition", part, "log", "events")
		peakLog.Observe(int64(p.PeakWlog))
		peakLog.Observe(int64(p.PeakSlog))
		peakLog.Observe(int64(p.PeakEvents))
	}
}
