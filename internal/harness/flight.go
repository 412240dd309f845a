package harness

// Flight-recorder integration: arming the simulator's black box on harness
// launches, surfacing the bundle alongside the error, deterministically
// re-running a bundle to reproduce the recorded failure, and deriving a
// launch's SM metrics and timeline from its decision streams (DESIGN.md
// Sections 8 and 14).

import (
	"context"
	"encoding/json"
	"fmt"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// FlightError wraps a launch or verification failure together with the
// flight-recorder bundle captured at the moment of failure. Callers that
// persist bundles (the job server, swapsim -flight) unwrap it with
// errors.As; everyone else sees the underlying error unchanged.
type FlightError struct {
	// Workload and Scheme identify the failing run in CLI/API names.
	Workload string
	Scheme   string
	// Bundle is the JSONL black box (simprof.WriteBundle format).
	Bundle []byte
	// Err is the underlying launch or verification error.
	Err error
}

// Error implements error, passing the underlying message through.
func (e *FlightError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *FlightError) Unwrap() error { return e.Err }

// flightWrap attaches the recorder's bundle to err when the recorder
// actually captured a failure; otherwise err passes through untouched
// (context cancellations, compile errors).
func flightWrap(fr *simprof.FlightRecorder, workload string, s compiler.Scheme, err error) error {
	if fr == nil || !fr.Failed() {
		return err
	}
	return &FlightError{Workload: workload, Scheme: SchemeName(s), Bundle: fr.Bundle(), Err: err}
}

// SchemeByStamp resolves a scheme from either its CLI/API name ("swap-ecc")
// or the display stamp the compiler writes into isa.Kernel.Scheme
// ("Swap-ECC") — flight bundles carry the latter, flags the former.
func SchemeByStamp(stamp string) (compiler.Scheme, error) {
	if s, err := SchemeByName(stamp); err == nil {
		return s, nil
	}
	if stamp == "" || stamp == "none" {
		return compiler.Baseline, nil
	}
	for _, s := range schemeNames {
		if s.String() == stamp {
			return s, nil
		}
	}
	return 0, fmt.Errorf("harness: no scheme matches stamp %q", stamp)
}

// Replay is the result of re-running a flight bundle: the replay's own
// recorder (for stream-level comparison against the original) and the error
// the replayed launch produced.
type Replay struct {
	// Recorder holds the decision streams captured by the replay run.
	Recorder *simprof.FlightRecorder
	// Stats is the replayed launch's statistics (nil if the launch
	// failed before finalizing).
	Stats *sm.Stats
	// Err is the error the replayed launch reproduced (nil means the
	// failure did not reproduce).
	Err error
}

// ReplayFlight deterministically re-runs the launch a bundle recorded:
// same workload, same scheme, the exact sm.Config frozen in the bundle. A
// launch is a deterministic function of those three, so the replay
// reproduces the recorded failure at the same cycle with identical decision
// streams. Fields a bundle's config carries that sm.Config no longer has
// (such as a retired worker count) are ignored.
func ReplayFlight(ctx context.Context, b *simprof.Bundle) (*Replay, error) {
	if b == nil {
		return nil, fmt.Errorf("harness: nil flight bundle")
	}
	if b.Meta.Workload == "" {
		return nil, fmt.Errorf("harness: flight bundle carries no workload identity; cannot rebuild device memory")
	}
	w, err := workloads.ByName(b.Meta.Workload)
	if err != nil {
		return nil, fmt.Errorf("harness: replay: %w", err)
	}
	scheme, err := SchemeByStamp(b.Meta.Scheme)
	if err != nil {
		return nil, fmt.Errorf("harness: replay: %w", err)
	}
	k, err := compiler.Apply(w.Kernel, scheme)
	if err != nil {
		return nil, fmt.Errorf("harness: replay: %w", err)
	}
	var cfg sm.Config
	if len(b.Meta.Config) == 0 {
		return nil, fmt.Errorf("harness: flight bundle carries no sm.Config")
	}
	if err := json.Unmarshal(b.Meta.Config, &cfg); err != nil {
		return nil, fmt.Errorf("harness: replay: decoding sm.Config: %w", err)
	}
	g := w.NewGPU(cfg)
	fr := simprof.NewFlightRecorder(0)
	fr.Annotate(b.Meta.Workload, b.Meta.Seed)
	g.Flight = fr
	st, lerr := g.LaunchContext(ctx, k)
	if lerr == nil {
		// The recorded failure may have been a verification mismatch, not
		// a launch error; reproduce that path too.
		if verr := w.Verify(g); verr != nil {
			fr.Fail(k.Name, k.Scheme, st.Cycles, cfg, "output verification failed: "+verr.Error())
			lerr = verr
		}
	}
	return &Replay{Recorder: fr, Stats: st, Err: lerr}, nil
}

// LaunchRings is the per-partition ring capacity of a flight recorder that
// must hold a whole launch, the input of ObserveLaunch. Of the 146 launches
// of the 15 workloads under the 10 schemes, the largest logs 30,061
// decisions in one partition on flat memory (lavaMD, Swap-ECC) and 56,141
// under the sectored hierarchy (kmeans, SW-Dup). The merge ring logs one
// decision per round, and every partition logs at least one per round.
const LaunchRings = 1 << 16

// ObserveLaunch writes one finished or stopped launch's SM observation into
// rec: the sm.* registry series (cycles, warp instructions, warps, the
// CPI-stack cycle partition, scoreboard-wait and detection-latency
// histograms) and a fresh sm:<kernel> trace process holding occupancy,
// issue-slot and stall-cycle samples once per rec.SamplePeriod cycles, one
// lifetime span per warp and the pipeline-DUE and BPT-trap instants, with
// one simulated cycle per trace microsecond. It reads only st, g.Fault and
// the decision streams of g.Flight, which must have been armed fresh for
// this launch with rings that hold all of it (LaunchRings). If a ring
// overflowed, the process carries an instant saying so instead of a
// timeline, the registry gets only the series Stats give, and the error
// says how many decisions were lost.
func ObserveLaunch(rec *obs.Recorder, g *sm.GPU, k *isa.Kernel, st *sm.Stats) error {
	scheme := k.Scheme
	if scheme == "" {
		scheme = "none"
	}
	reg := rec.Registry()
	kv := []string{"kernel", k.Name, "scheme", scheme}
	count := func(name string, v int64, labels ...string) {
		if v > 0 {
			reg.Counter(obs.Name(name, append(labels, kv...)...)).Add(v)
		}
	}
	// The reason label uses the cpistack component vocabulary, so scrapes
	// line up with the -exp cpistack tables.
	for reason, v := range map[string]int64{
		"deps": st.StallCyclesDeps, "throttle": st.StallCyclesThrottle,
		"barrier": st.StallCyclesBarrier, "nowarp": st.StallCyclesNoWarp,
		"occupancy": st.StallCyclesOccupancy,
		"mem.l1":    st.StallCyclesMemL1, "mem.l2": st.StallCyclesMemL2,
		"mem.dram": st.StallCyclesMemDRAM, "mem.mshr": st.StallCyclesMemMSHR,
	} {
		count("sm.stall_cycles", v, "reason", reason)
	}
	count("sm.issue_cycles", st.IssueCycles)
	// Nonzero means some instruction's timing was a guess.
	count("sm.unknown_class", st.UnknownClassOps)

	pid := rec.UniqueProcess("sm:" + k.Name)
	parts := make([][]simprof.Decision, max(g.Cfg.Schedulers, 1))
	lost := g.Flight.MergeRing().Lost()
	for i := range parts {
		r := g.Flight.Partition(i)
		parts[i], lost = r.Snapshot(), lost+r.Lost()
	}
	if lost > 0 {
		rec.Instant(pid, 0, "flight rings overflowed: timeline omitted", "flight", st.Cycles,
			map[string]any{"lost_decisions": lost})
		count("sm.cycles", st.Cycles)
		count("sm.warp_instrs", st.DynWarpInstrs)
		return fmt.Errorf("harness: kernel %s: the flight rings lost %d decisions; its SM timeline is omitted",
			k.Name, lost)
	}

	period := rec.SamplePeriod
	if period < 1 {
		period = obs.DefaultSamplePeriod
	}
	// Scoreboard waits are bounded by the global-memory latency tail
	// (~140 cycles by default); detection latency by kernel length.
	scoreWait := reg.Histogram(obs.Name("sm.scoreboard_wait_cycles", kv...), obs.ExpBounds(1, 12)...)
	detectLat := reg.Histogram(obs.Name("sm.detect_latency_cycles", kv...), obs.ExpBounds(1, 16)...)
	cycles := reg.Counter(obs.Name("sm.cycles", kv...))
	instrs := reg.Counter(obs.Name("sm.warp_instrs", kv...))
	warps := reg.Counter(obs.Name("sm.warps_retired", kv...))

	// The replay mirrors the round loop: each merge-ring round first takes
	// every partition's decisions up to its cycle (the CTA launches before
	// it, then phase A), then retires the warps whose last issue it was,
	// partition by partition in slot order, which is launch order.
	wpc := (k.CTAThreads + isa.WarpSize - 1) / isa.WarpSize
	start := make([]int64, k.GridCTAs*wpc)
	done := make([]bool, len(start))
	ctaWarps := make([]int, k.GridCTAs)
	live := make([][]int32, len(parts))
	liveWarps, liveCTAs := 0, 0
	span := func(gid int32, end int64) {
		warps.Inc()
		rec.Span(pid, int64(gid), fmt.Sprintf("cta%d.w%d", int(gid)/wpc, int(gid)%wpc), "warp",
			start[gid], end-start[gid], nil)
	}
	var winStart, winIssued int64
	var winStall [4]int64 // deps, throttle, barrier, nowarp
	sample := func(now int64) {
		win := now - winStart
		if win <= 0 {
			return
		}
		cycles.Add(win)
		instrs.Add(winIssued)
		slots := int64(g.Cfg.Schedulers) * int64(max(g.Cfg.IssuePerSched, 1)) * win
		rec.Sample(pid, "sm.occupancy", now, map[string]any{"warps": liveWarps, "ctas": liveCTAs})
		rec.Sample(pid, "sm.issue_slots", now, map[string]any{"issued": winIssued, "total": slots})
		rec.Sample(pid, "sm.stall_cycles", now, map[string]any{
			"deps": winStall[0], "throttle": winStall[1], "barrier": winStall[2], "nowarp": winStall[3]})
		winStart, winIssued, winStall = now, 0, [4]int64{}
	}
	next := make([]int, len(parts))
	for _, md := range g.Flight.MergeRing().Snapshot() {
		if md.Kind != simprof.KindMerge && md.Kind != simprof.KindSkip {
			continue
		}
		c, retired := md.Cycle, false
		for p, ds := range parts {
			for ; next[p] < len(ds) && ds[next[p]].Cycle <= c; next[p]++ {
				switch d := ds[next[p]]; d.Kind {
				case simprof.KindResident:
					start[d.Warp] = d.Cycle
					live[p] = append(live[p], d.Warp)
					liveWarps++
					if ctaWarps[int(d.Warp)/wpc]++; ctaWarps[int(d.Warp)/wpc] == 1 {
						liveCTAs++
					}
				case simprof.KindIssue:
					if d.Aux == 1 {
						done[d.Warp], retired = true, true
					}
				case simprof.KindDue:
					if fp := g.Fault; fp != nil && fp.Applied && c >= fp.Cycle {
						detectLat.Observe(c - fp.Cycle)
					}
					rec.Instant(pid, 0, "pipeline DUE", "due", c,
						map[string]any{"reg": isa.Reg(d.Aux >> 8).String(), "lane": int(d.Aux & 0xff)})
				case simprof.KindTrap:
					rec.Instant(pid, 0, "BPT trap", "due", c, nil)
				}
			}
		}
		for p, ws := range live {
			if !retired {
				break
			}
			kept := ws[:0]
			for _, gid := range ws {
				if !done[gid] {
					kept = append(kept, gid)
					continue
				}
				span(gid, c)
				liveWarps--
				if ctaWarps[int(gid)/wpc]--; ctaWarps[int(gid)/wpc] == 0 {
					liveCTAs--
				}
			}
			live[p] = kept
		}
		delta := int64(1)
		if md.Kind == simprof.KindSkip {
			delta = md.Aux
			if r := int(md.Reason); r >= 1 && r <= len(winStall) {
				winStall[r-1] += delta
				if r == 1 { // a scoreboard wait
					scoreWait.Observe(delta)
				}
			}
		} else {
			winIssued += md.Aux
		}
		if c+delta-winStart >= period {
			sample(c + delta)
		}
	}
	// A stopped launch still holds resident warps: their spans end at the
	// stop, after the trailing window.
	sample(st.Cycles)
	for _, ws := range live {
		for _, gid := range ws {
			span(gid, st.Cycles)
		}
	}
	return nil
}
