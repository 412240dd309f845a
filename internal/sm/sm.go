// Package sm simulates a GPU streaming multiprocessor executing the SASS-
// like ISA: SIMT warps with a reconvergence stack, a scoreboard without
// register bypassing (the paper's Section III-A assumption), per-class issue
// throughput and latency, occupancy limited by registers per thread, CTA
// barriers, and a global/shared memory hierarchy. The simulator is both
// functional (kernels compute real results) and timing (relative cycle
// counts drive the Figure 12/15/16 performance reproductions).
//
// One simulated SM processes the entire grid in resident-CTA waves — the
// per-scheme slowdown ratios are what matter, and they are invariant to the
// SM count.
package sm

import (
	"context"
	"errors"
	"fmt"
	"math"

	"swapcodes/internal/compiler"
	"swapcodes/internal/core"
	"swapcodes/internal/isa"
	"swapcodes/internal/memmodel"
	"swapcodes/internal/obs/cpistack"
	"swapcodes/internal/obs/simprof"
)

// Config gives the SM's microarchitectural parameters. The defaults are
// Pascal-class (DESIGN.md Section 6).
type Config struct {
	// Schedulers is the number of warp schedulers.
	Schedulers int
	// IssuePerSched is the dual-issue width of each scheduler.
	IssuePerSched int
	// RegAllocGranule is the register-file allocation granularity per
	// thread (occupancy rounds registers/thread up to a multiple of this).
	RegAllocGranule int
	// MaxWarps is the resident warp limit, at most 64 per scheduler.
	MaxWarps int
	// MaxCTAs is the resident CTA limit.
	MaxCTAs int
	// RegFileWords is the architectural register file capacity in 32-bit
	// words (registers/thread × threads resident must fit).
	RegFileWords int
	// SharedWords is the shared-memory capacity in words.
	SharedWords int

	// Per-class result latencies in cycles (producer issue to operand
	// readability; includes write-back since there is no bypass network).
	// LatGMem is an effective cache-inclusive global-load latency: Rodinia
	// working sets are largely L1/L2 resident on a P100, so the pure DRAM
	// figure would overstate latency-boundness.
	LatFxP, LatFP32, LatFP64, LatSFU, LatMove, LatSMem, LatGMem, LatSpecial int64
	// BypassSaving is subtracted from ALU-class latencies when modeling a
	// theoretical bypassed pipeline (the Section VI ablation). Zero by
	// default.
	BypassSaving int64

	// Per-class issue throughput in warp-instructions per cycle, each
	// positive and finite.
	ThrFxP, ThrFP32, ThrFP64, ThrSFU, ThrMove, ThrSMem, ThrGMem, ThrSpecial, ThrCtrl float64

	// Verify enables dynamic self-checks on the simulator's own invariants:
	// the CPI-stack partition must sum exactly to launch cycles, every
	// retiring warp must have drained its divergence stack and barriers,
	// and residency must never exceed the register-file/shared-memory/warp-
	// slot bounds the occupancy calculation promised. Violations are
	// reported as an *InvariantError from Launch. Off by default (the checks
	// cost a few percent on hot launches).
	Verify bool

	// Reference selects the reference scheduler (pickRef): every
	// scheduling decision runs the full scoreboard scan on each live warp
	// it visits and reads and writes none of the scheduler slots that
	// cache the fast path's verdicts (DESIGN.md Section 13). It is the
	// slow, obviously correct scheduler the differential tests compare the
	// fast path against; results are identical, only wall clock differs.
	Reference bool

	// MemModel selects the global-memory timing tier. "" or "off" keeps the
	// seed flat-latency path (every LDG completes in LatGMem cycles) and is
	// bit-identical to configurations that predate the field. "sectored"
	// arms the internal/memmodel hierarchy: per-warp sector coalescing, a
	// sectored L1 with a bounded MSHR file, a banked L2, and a DRAM
	// bandwidth/row-locality model, with per-level CPI-stall attribution
	// (mem.l1/l2/dram/mshr). The hierarchy is timing-only — functional
	// results never change — and it advances entirely inside the
	// deterministic merge barrier.
	MemModel string

	// MaxCycles aborts the launch with an error once the simulated cycle
	// count exceeds it (0 = unlimited). The differential verifier uses it
	// to bound runs of deliberately or accidentally miscompiled programs,
	// whose divergence from the baseline can include not terminating at
	// all; a deterministic cycle budget turns that hang into a reportable
	// failure, unlike a wall-clock timeout.
	MaxCycles int64

	// ECC enables the SwapCodes-protected register file (error-injection
	// studies and examples; adds bookkeeping cost).
	ECC bool
	// Org selects the register-file organization when ECC is on.
	Org core.Organization
	// HaltOnDUE stops the simulation at the first pipeline DUE.
	HaltOnDUE bool
}

// DefaultConfig returns the Pascal-class baseline configuration.
func DefaultConfig() Config {
	return Config{
		Schedulers:      4,
		IssuePerSched:   2,
		RegAllocGranule: 8,
		MaxWarps:        64,
		MaxCTAs:         32,
		RegFileWords:    65536,
		SharedWords:     24576,
		LatFxP:          6, LatFP32: 6, LatFP64: 8, LatSFU: 12,
		LatMove: 4, LatSMem: 24, LatGMem: 140, LatSpecial: 6,
		ThrFxP: 2, ThrFP32: 2, ThrFP64: 1, ThrSFU: 0.5,
		ThrMove: 2, ThrSMem: 1, ThrGMem: 0.5, ThrSpecial: 1, ThrCtrl: 4,
		Org: core.OrgSECDEDDP,
	}
}

// latency returns the result latency for a class. The second result is
// false for a class outside the ISA's vocabulary: such an instruction used
// to silently get 1-cycle (fastest-path) timing, which is exactly the kind
// of misclassification a timing model must never paper over — callers count
// it (Stats.UnknownClassOps, the sm.unknown_class metric) and Config.Verify
// turns it into an invariant violation. Control instructions are a real
// class with no register result; their nominal 1-cycle latency only feeds
// the maxLatency scoreboard horizon.
func (c *Config) latency(cl isa.Class) (int64, bool) {
	var l int64
	switch cl {
	case isa.ClassFxP:
		l = c.LatFxP
	case isa.ClassFP32:
		l = c.LatFP32
	case isa.ClassFP64:
		l = c.LatFP64
	case isa.ClassSFU:
		l = c.LatSFU
	case isa.ClassMove:
		l = c.LatMove
	case isa.ClassMemShared:
		l = c.LatSMem
	case isa.ClassMemGlobal:
		l = c.LatGMem
	case isa.ClassSpecial:
		l = c.LatSpecial
	case isa.ClassControl:
		return 1, true
	default:
		return 1, false
	}
	switch cl {
	case isa.ClassFxP, isa.ClassFP32, isa.ClassFP64, isa.ClassMove:
		l -= c.BypassSaving
		if l < 1 {
			l = 1
		}
	}
	return l, true
}

// rate returns the issue throughput for a class, with the same unknown-class
// contract as latency: the fallback rate keeps the simulation live, the
// false result makes the misclassification loud.
func (c *Config) rate(cl isa.Class) (float64, bool) {
	switch cl {
	case isa.ClassFxP:
		return c.ThrFxP, true
	case isa.ClassFP32:
		return c.ThrFP32, true
	case isa.ClassFP64:
		return c.ThrFP64, true
	case isa.ClassSFU:
		return c.ThrSFU, true
	case isa.ClassMove:
		return c.ThrMove, true
	case isa.ClassMemShared:
		return c.ThrSMem, true
	case isa.ClassMemGlobal:
		return c.ThrGMem, true
	case isa.ClassSpecial:
		return c.ThrSpecial, true
	case isa.ClassControl:
		return c.ThrCtrl, true
	default:
		return c.ThrCtrl, false
	}
}

// validate rejects a config the round loop cannot serve. An issue rate that
// is not positive and finite makes throttle wakes divide by zero, go
// negative, or convert an infinity or NaN to int64, and the idle skip then
// crawls one cycle per round. A partition's scheduler sets are one 64-bit
// word, and least-loaded placement keeps every partition at or below
// ceil(MaxWarps/Schedulers) warps, so MaxWarps is bounded by 64 per
// partition.
func (c *Config) validate() error {
	names := [...]string{"ThrFxP", "ThrFP32", "ThrFP64", "ThrSFU", "ThrMove",
		"ThrSMem", "ThrGMem", "ThrSpecial", "ThrCtrl"}
	for i, r := range [...]float64{c.ThrFxP, c.ThrFP32, c.ThrFP64, c.ThrSFU, c.ThrMove,
		c.ThrSMem, c.ThrGMem, c.ThrSpecial, c.ThrCtrl} {
		if !(r > 0) || math.IsInf(r, 1) {
			return fmt.Errorf("sm: Config.%s = %v: issue rates must be positive and finite", names[i], r)
		}
	}
	if n := max(c.Schedulers, 1); c.MaxWarps > 64*n {
		return fmt.Errorf("sm: Config.MaxWarps = %d exceeds 64 warps per scheduler (%d schedulers)",
			c.MaxWarps, n)
	}
	return nil
}

// FaultPlan injects one transient pipeline error: when the global dynamic
// warp-instruction counter reaches TargetDynInstr and that instruction
// writes a register, the destination value of the chosen lane is XORed with
// BitMask before write-back (for wide results, BitMaskHi corrupts the high
// register). This models a single-event upset in the producing datapath.
type FaultPlan struct {
	TargetDynInstr int64
	Lane           int
	BitMask        uint32
	BitMaskHi      uint32
	// Applied reports whether the fault fired, and Cycle the cycle it fired
	// at.
	Applied bool
	Cycle   int64
}

// Stats aggregates one launch.
type Stats struct {
	Cycles           int64
	DynWarpInstrs    int64
	PerClass         map[isa.Class]int64
	PerCat           map[isa.Category]int64
	MaxResidentWarps int
	// PipelineDUEs counts register reads flagged as pipeline errors by the
	// ECC decoder (SwapCodes detections).
	PipelineDUEs int64
	// StorageCorrections counts corrected storage errors.
	StorageCorrections int64
	// StorageDUEs counts detected-uncorrectable storage/unattributed events.
	StorageDUEs int64
	// Trapped reports a software-checking BPT trap fired (SW-Dup or
	// inter-thread detection).
	Trapped bool
	// Stall attribution: per scheduler slot that failed to issue, the
	// blocking reason of the nearest-to-ready warp. StallDeps counts
	// scoreboard (operand latency) stalls, StallThrottle execution-pipe
	// bandwidth stalls, StallBarrier barrier waits, and StallNoWarp slots
	// with no live warp assigned.
	StallDeps, StallThrottle, StallBarrier, StallNoWarp int64
	// Cycle-level stall attribution: cycles in which NO scheduler issued,
	// charged to the blocking reason of the SM's nearest-to-ready warp
	// (rounds where at least one slot issued are charged to IssueCycles).
	// Together the five stall fields and IssueCycles partition Cycles
	// exactly — the launch's CPI stack (see CPIStack) — which makes "where
	// did the slowdown go" a direct read.
	StallCyclesDeps, StallCyclesThrottle, StallCyclesBarrier, StallCyclesNoWarp int64
	// StallCyclesOccupancy charges idle cycles to occupancy capping:
	// dependence or warp-starvation idles that occurred while registers or
	// shared memory held residency below the SM's warp-slot limit with CTAs
	// still waiting — latency the denied warps could have covered.
	StallCyclesOccupancy int64
	// Memory-tier stall attribution (Config.MemModel armed; all zero on the
	// flat-latency path): dependence idles whose nearest-to-ready warp waits
	// on a hierarchy load, charged to the level that bounded that load's
	// completion — L1 hit service, L2 hit, DRAM, or the wait for a free
	// MSHR. These take precedence over the occupancy re-attribution: an
	// occupancy-capped memory-bound kernel still shows WHERE its latency
	// lives.
	StallCyclesMemL1, StallCyclesMemL2, StallCyclesMemDRAM, StallCyclesMemMSHR int64
	// UnknownClassOps counts timing lookups for an instruction class outside
	// the ISA's vocabulary (the latency/rate fallback). Always zero for
	// kernels built from real opcodes; nonzero means a misclassified
	// instruction got fallback timing (an invariant violation under Verify).
	UnknownClassOps int64
	// Mem carries the armed memory hierarchy's event counters (nil when
	// MemModel is off).
	Mem *memmodel.Stats
	// IssueCycles counts cycles in which at least one scheduler slot issued.
	IssueCycles int64
	// ResidentWarpLimit is the occupancy cap the launch ran under, in warps
	// (MaxResidentWarps can run below it on small grids).
	ResidentWarpLimit int
	// DepCyclesPerClass sub-attributes StallCyclesDeps to the pipe class of
	// the producer being waited on; ThrottleCyclesPerClass sub-attributes
	// StallCyclesThrottle to the saturated pipe.
	DepCyclesPerClass      map[isa.Class]int64
	ThrottleCyclesPerClass map[isa.Class]int64
}

// StallCycles returns the total fully-idle cycles across all reasons.
func (s *Stats) StallCycles() int64 {
	return s.StallCyclesDeps + s.StallCyclesThrottle + s.StallCyclesBarrier +
		s.StallCyclesNoWarp + s.StallCyclesOccupancy + s.MemStallCycles()
}

// MemStallCycles returns the total idle cycles attributed to the memory
// hierarchy (zero when MemModel is off).
func (s *Stats) MemStallCycles() int64 {
	return s.StallCyclesMemL1 + s.StallCyclesMemL2 + s.StallCyclesMemDRAM + s.StallCyclesMemMSHR
}

// CPIStack exports the launch's cycle partition in the attribution
// vocabulary of internal/obs/cpistack. kernel and scheme override the
// kernel's own stamps when non-empty (callers that launch un-stamped
// hand-built kernels can still label their stacks).
func (s *Stats) CPIStack(kernel, scheme string) *cpistack.Stack {
	st := &cpistack.Stack{
		Kernel:            kernel,
		Scheme:            scheme,
		Cycles:            s.Cycles,
		Instrs:            s.DynWarpInstrs,
		MaxResidentWarps:  s.MaxResidentWarps,
		ResidentWarpLimit: s.ResidentWarpLimit,
		Comp: map[string]int64{
			cpistack.Issue:     s.IssueCycles,
			cpistack.Deps:      s.StallCyclesDeps,
			cpistack.Throttle:  s.StallCyclesThrottle,
			cpistack.Barrier:   s.StallCyclesBarrier,
			cpistack.NoWarp:    s.StallCyclesNoWarp,
			cpistack.Occupancy: s.StallCyclesOccupancy,
			cpistack.MemL1:     s.StallCyclesMemL1,
			cpistack.MemL2:     s.StallCyclesMemL2,
			cpistack.MemDRAM:   s.StallCyclesMemDRAM,
			cpistack.MemMSHR:   s.StallCyclesMemMSHR,
		},
	}
	if len(s.DepCyclesPerClass) > 0 {
		st.DepsByClass = make(map[string]int64, len(s.DepCyclesPerClass))
		for cl, v := range s.DepCyclesPerClass {
			st.DepsByClass[cl.String()] = v
		}
	}
	if len(s.ThrottleCyclesPerClass) > 0 {
		st.ThrottleByClass = make(map[string]int64, len(s.ThrottleCyclesPerClass))
		for cl, v := range s.ThrottleCyclesPerClass {
			st.ThrottleByClass[cl.String()] = v
		}
	}
	return st
}

// IPC returns issued warp instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.DynWarpInstrs) / float64(s.Cycles)
}

// TraceFunc observes executed arithmetic, SASSI-style (Section IV-A): one
// call per active lane of every instruction whose opcode feeds one of the
// six Figure 10 units (isa.Opcode.Traced: IADD, ISUB, IMUL, IMAD, FADD,
// FSUB, FMUL, FFMA, DADD, DSUB, DMUL and DFMA), with the operand values and
// result, in the launch's instruction order. No other opcode reaches it,
// ATOM included. FP64 operands arrive as full 64-bit values, and so does
// a wide IMAD's addend; everything else in the low 32 bits.
//
// The return value says whether the tracer wants more of op. Returning
// false declines op for the rest of the launch: it gets no further call
// for op, not even for the instruction's remaining lanes, and op's later
// instances run on the fused fast path. Other opcodes keep arriving, and
// the next launch starts with every traced opcode observed again.
type TraceFunc func(op isa.Opcode, wide bool, lane int, a, b, c, result uint64) bool

// GPU owns global memory and runs kernels.
type GPU struct {
	Cfg Config
	Mem []uint32
	// Fault, when non-nil, arms pipeline error injection for the next
	// launch.
	Fault *FaultPlan
	// Trace, when non-nil, receives per-lane operand/result values of the
	// traced arithmetic opcodes (the binary-instrumentation value tracer;
	// see TraceFunc). Only those opcodes leave the fused fast path for the
	// generic one, and only until the tracer declines them; an armed
	// tracer changes no simulated number.
	Trace TraceFunc
	// Prof, when non-nil, collects per-partition scheduling telemetry for
	// every launch (DESIGN.md §14): per-partition issue/stall/deferred-log
	// profiles and round and idle-skip counts. Every value it records is a
	// deterministic function of the launch, and none feeds back into
	// simulated results, so Stats are bit-identical with Prof on or off.
	Prof *simprof.LaunchProf
	// Flight, when non-nil, arms the flight recorder: each partition logs
	// its recent scheduler decisions into a fixed-size ring, and any launch
	// failure (invariant violation, deadlock, cycle-budget trip, panic)
	// stamps the recorder with enough identity (config, kernel, scheme,
	// cycle) to re-run the launch deterministically from the dumped bundle.
	// Rings that hold a whole launch are also its observation record
	// (harness.ObserveLaunch).
	Flight *simprof.FlightRecorder
	// RetireHook, when non-nil, observes every retiring warp's final
	// architectural state: regs is laid out reg*WarpSize+lane and preds
	// holds P0..P7 lane masks. Both slices alias live simulator storage and
	// must be copied if retained past the call. The differential verifier
	// (internal/verify) uses this to compare end-of-kernel register state
	// between protected and baseline runs.
	RetireHook func(ctaID, warpInCTA int, regs []uint32, preds []uint32)
}

// NewGPU allocates a device with memWords words of global memory.
func NewGPU(cfg Config, memWords int) *GPU {
	return &GPU{Cfg: cfg, Mem: make([]uint32, memWords)}
}

// Float32 reads global memory as f32.
func (g *GPU) Float32(addr int) float32 { return f32FromBits(g.Mem[addr]) }

// SetFloat32 writes f32 to global memory.
func (g *GPU) SetFloat32(addr int, v float32) { g.Mem[addr] = f32Bits(v) }

// Float64 reads a two-word f64.
func (g *GPU) Float64(addr int) float64 {
	return f64FromBits(uint64(g.Mem[addr]) | uint64(g.Mem[addr+1])<<32)
}

// SetFloat64 writes a two-word f64.
func (g *GPU) SetFloat64(addr int, v float64) {
	b := f64Bits(v)
	g.Mem[addr] = uint32(b)
	g.Mem[addr+1] = uint32(b >> 32)
}

// Int32 reads global memory as a signed int.
func (g *GPU) Int32(addr int) int32 { return int32(g.Mem[addr]) }

// SetInt32 writes a signed int.
func (g *GPU) SetInt32(addr int, v int32) { g.Mem[addr] = uint32(v) }

// Snapshot captures device memory for checkpoint-based recovery — the
// paper's Section VI observation that Swap-ECC's strict error containment
// (detection at the register read, before any store) lets conventional
// checkpoint/restart recover from pipeline DUEs.
func (g *GPU) Snapshot() []uint32 {
	out := make([]uint32, len(g.Mem))
	copy(out, g.Mem)
	return out
}

// Restore rolls device memory back to a snapshot.
func (g *GPU) Restore(snap []uint32) {
	copy(g.Mem, snap)
}

// Launch runs a kernel to completion and returns its stats.
func (g *GPU) Launch(k *isa.Kernel) (*Stats, error) {
	return g.LaunchContext(context.Background(), k)
}

// LaunchContext runs a kernel under a context. On cancellation or timeout
// the simulation stops at the next scheduler round and returns the stats
// accumulated so far (cycles, instruction counts, stall attribution)
// together with an error wrapping the context's — partial results for
// early-stopped experiments. A launch that fails returns nil stats and its
// own error, even if its context ended meanwhile.
func (g *GPU) LaunchContext(ctx context.Context, k *isa.Kernel) (*Stats, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := g.Cfg.validate(); err != nil {
		return nil, err
	}
	m := newMachine(g, k)
	if err := m.run(ctx); err != nil {
		if stoppedByContext(err) {
			return m.stats, err
		}
		return nil, err
	}
	return m.stats, nil
}

// stoppedByContext reports whether err is the round loop's stop on a
// cancelled or expired context, whose stats are finalized, rather than a
// launch failure, whose stats are not. It reads the loop's own error: a
// second ctx.Err() read would also see a context that ended after the
// launch had already failed.
func stoppedByContext(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunScheme compiles the kernel under a scheme and launches it, a
// convenience for the experiment harness.
func (g *GPU) RunScheme(k *isa.Kernel, s compiler.Scheme) (*Stats, error) {
	t, err := compiler.Apply(k, s)
	if err != nil {
		return nil, err
	}
	return g.Launch(t)
}

// TrapError is returned when HaltOnDUE is unset but a BPT trap fires and
// execution cannot meaningfully continue.
type TrapError struct{ Kernel string }

// Error implements error.
func (e *TrapError) Error() string {
	return fmt.Sprintf("sm: kernel %s: BPT trap (software error detection fired)", e.Kernel)
}
