package sm_test

import (
	"reflect"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/memmodel"
	"swapcodes/internal/obs/cpistack"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// Gates on the opt-in memory hierarchy (sm.Config.MemModel, DESIGN.md
// section 15). The contract has two halves: with the model off the
// simulator must be BIT-IDENTICAL to the seed flat-latency path — the
// hierarchy code may cost one nil check and nothing else — and with it
// armed the simulation must match the reference scheduler's and keep every
// conservation law (CPI partition, retire horizon) intact.

// TestMemModelOffBitIdentical: MemModel "off" must reproduce the default
// configuration's ("" spelling) Stats and final memory exactly, on every
// workload x scheme.
func TestMemModelOffBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	for _, w := range workloads.All() {
		for _, s := range diffSchemes {
			k, err := compiler.Apply(w.Kernel, s)
			if err != nil {
				continue // scheme not applicable
			}
			refSt, refMem := launchWith(t, w, k, s, sm.DefaultConfig())
			cfg := sm.DefaultConfig()
			cfg.MemModel = "off"
			st, mem := launchWith(t, w, k, s, cfg)
			if !reflect.DeepEqual(st, refSt) {
				t.Errorf("%s/%v: MemModel=off Stats diverge from seed path\n got %+v\nwant %+v",
					w.Name, s, st, refSt)
			}
			if !reflect.DeepEqual(mem, refMem) {
				t.Errorf("%s/%v: MemModel=off final memory diverges from seed path", w.Name, s)
			}
			if st.Mem != nil || st.MemStallCycles() != 0 {
				t.Errorf("%s/%v: flat path carries hierarchy state (Mem=%v, stalls=%d)",
					w.Name, s, st.Mem, st.MemStallCycles())
			}
			if st.UnknownClassOps != 0 {
				t.Errorf("%s/%v: %d unknown-class fallbacks on a real kernel",
					w.Name, s, st.UnknownClassOps)
			}
		}
	}
}

// memDiffWorkloads keeps the armed differential affordable: two
// memory-bound kernels (bfs, gauss), the dense compute one (mm), the
// barrier-heavy one (lavaMD), and the two whose hierarchy waits fill the
// scheduler's far set most (snap, kmeans), where stall reuses its wait
// verdict across idle rounds.
var memDiffWorkloads = []string{"bfs", "gauss", "mm", "lavaMD", "snap", "kmeans"}

// TestMemModelArmedDifferential: the armed hierarchy must be bit-identical
// between the reference scheduler and the slot-cached default loop — all
// hierarchy state advances at the barrier in partition order, so the
// scheduler's caching cannot move a single fill.
func TestMemModelArmedDifferential(t *testing.T) {
	for _, name := range memDiffWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []compiler.Scheme{compiler.Baseline, compiler.SwapECC} {
			k, err := compiler.Apply(w.Kernel, s)
			if err != nil {
				continue
			}
			ref := sm.DefaultConfig()
			ref.Reference = true
			ref.MemModel = "sectored"
			refSt, refMem := launchWith(t, w, k, s, ref)
			cfg := sm.DefaultConfig()
			cfg.MemModel = "sectored"
			st, mem := launchWith(t, w, k, s, cfg)
			if !reflect.DeepEqual(st, refSt) {
				t.Errorf("%s/%v: armed Stats diverge from reference\n got %+v\nwant %+v",
					w.Name, s, st, refSt)
			}
			if !reflect.DeepEqual(mem, refMem) {
				t.Errorf("%s/%v: armed final memory diverges from reference", w.Name, s)
			}
		}
	}
}

// TestMemModelArmedVerifyMode re-runs armed launches with the dynamic
// invariants on, so the CPI-partition law, the idle-round audit, and the
// hierarchy-extended retire horizon actually execute against the armed
// scheduler.
func TestMemModelArmedVerifyMode(t *testing.T) {
	for _, name := range []string{"bfs", "gauss", "snap", "kmeans"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sm.DefaultConfig()
		cfg.MemModel = "sectored"
		cfg.Verify = true
		launchWith(t, w, w.Kernel, compiler.Baseline, cfg)
	}
}

// TestMemModelArmedCPIPartition: the armed CPI stack must still partition
// the cycle count exactly, now across ten components, and the memory-bound
// kernels must actually charge memory-tier stalls — the acceptance check
// behind the -exp memcpi tables.
func TestMemModelArmedCPIPartition(t *testing.T) {
	for _, name := range []string{"bfs", "gauss"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sm.DefaultConfig()
		cfg.MemModel = "sectored"
		st, _ := launchWith(t, w, w.Kernel, compiler.Baseline, cfg)
		stack := st.CPIStack(w.Name, "baseline")
		if stack.Sum() != st.Cycles {
			t.Errorf("%s: armed components sum to %d, want %d (stack %+v)",
				w.Name, stack.Sum(), st.Cycles, stack.Comp)
		}
		if st.MemStallCycles() == 0 {
			t.Errorf("%s: memory-bound kernel charged zero memory-tier stalls (stack %+v)",
				w.Name, stack.Comp)
		}
		var memSum int64
		for _, c := range cpistack.MemComponents() {
			memSum += stack.Comp[c]
		}
		if memSum != st.MemStallCycles() {
			t.Errorf("%s: stack mem components sum to %d, Stats say %d", w.Name, memSum, st.MemStallCycles())
		}
		if st.Mem == nil {
			t.Fatalf("%s: armed launch carries no hierarchy counters", w.Name)
		}
		if st.Mem.L1Hits+st.Mem.L1Misses == 0 {
			t.Errorf("%s: hierarchy saw no load sectors", w.Name)
		}
		if st.Mem.LoadAccesses == 0 {
			t.Errorf("%s: hierarchy saw no load transactions", w.Name)
		}
	}
}

// memGolden pins the armed tier's real numbers: cycles and every hierarchy
// counter under baseline and Swap-ECC, for the four memory-bound kernels
// plus lavaMD and snap, the launches whose MSHR files see equal-fill ties
// at exhaustion. The differentials above compare the tier with itself, so
// a change to the model's semantics (an MSHR tie-break, an LRU rule) passes
// them; these values are -exp memcpi figures and must only move on purpose.
var memGolden = []struct {
	workload string
	scheme   compiler.Scheme
	cycles   int64
	mem      memmodel.Stats
}{
	{"bfs", compiler.Baseline, 21659, memmodel.Stats{
		LoadAccesses: 640, StoreAccesses: 762, LoadSectors: 4359, StoreSectors: 3284,
		L1Hits: 1982, L1Misses: 2208, MSHRMerges: 169, MSHRFullEvents: 2176, MSHRWaitCycles: 4662113,
		L2Hits: 1006, L2Misses: 1202, RowHits: 3005, RowMisses: 138,
	}},
	{"bfs", compiler.SwapECC, 21604, memmodel.Stats{
		LoadAccesses: 640, StoreAccesses: 762, LoadSectors: 4359, StoreSectors: 3284,
		L1Hits: 1988, L1Misses: 2197, MSHRMerges: 174, MSHRFullEvents: 2164, MSHRWaitCycles: 4634566,
		L2Hits: 995, L2Misses: 1202, RowHits: 3005, RowMisses: 138,
	}},
	{"gauss", compiler.Baseline, 11950, memmodel.Stats{
		LoadAccesses: 3840, StoreAccesses: 512, LoadSectors: 8640, StoreSectors: 1920,
		L1Hits: 8264, L1Misses: 256, MSHRMerges: 120, MSHRFullEvents: 222, MSHRWaitCycles: 188696,
		L2Hits: 0, L2Misses: 256, RowHits: 248, RowMisses: 8,
	}},
	{"gauss", compiler.SwapECC, 13686, memmodel.Stats{
		LoadAccesses: 3840, StoreAccesses: 512, LoadSectors: 8640, StoreSectors: 1920,
		L1Hits: 8271, L1Misses: 256, MSHRMerges: 113, MSHRFullEvents: 222, MSHRWaitCycles: 172347,
		L2Hits: 0, L2Misses: 256, RowHits: 248, RowMisses: 8,
	}},
	{"kmeans", compiler.Baseline, 670435, memmodel.Stats{
		LoadAccesses: 4128, StoreAccesses: 128, LoadSectors: 131200, StoreSectors: 512,
		L1Hits: 0, L1Misses: 131080, MSHRMerges: 120, MSHRFullEvents: 131040, MSHRWaitCycles: 1326794384,
		L2Hits: 129024, L2Misses: 2056, RowHits: 2485, RowMisses: 83,
	}},
	{"kmeans", compiler.SwapECC, 670466, memmodel.Stats{
		LoadAccesses: 4128, StoreAccesses: 128, LoadSectors: 131200, StoreSectors: 512,
		L1Hits: 0, L1Misses: 131080, MSHRMerges: 120, MSHRFullEvents: 131040, MSHRWaitCycles: 1325459664,
		L2Hits: 129024, L2Misses: 2056, RowHits: 2486, RowMisses: 82,
	}},
	{"needle", compiler.Baseline, 50785, memmodel.Stats{
		LoadAccesses: 504, StoreAccesses: 504, LoadSectors: 8192, StoreSectors: 8192,
		L1Hits: 7168, L1Misses: 1024, MSHRMerges: 0, MSHRFullEvents: 0, MSHRWaitCycles: 0,
		L2Hits: 0, L2Misses: 1024, RowHits: 6960, RowMisses: 2256,
	}},
	{"needle", compiler.SwapECC, 61492, memmodel.Stats{
		LoadAccesses: 504, StoreAccesses: 504, LoadSectors: 8192, StoreSectors: 8192,
		L1Hits: 7168, L1Misses: 1024, MSHRMerges: 0, MSHRFullEvents: 0, MSHRWaitCycles: 0,
		L2Hits: 0, L2Misses: 1024, RowHits: 6969, RowMisses: 2247,
	}},
	{"lavaMD", compiler.Baseline, 16726, memmodel.Stats{
		LoadAccesses: 288, StoreAccesses: 96, LoadSectors: 1152, StoreSectors: 384,
		L1Hits: 244, L1Misses: 576, MSHRMerges: 332, MSHRFullEvents: 544, MSHRWaitCycles: 1776376,
		L2Hits: 0, L2Misses: 576, RowHits: 914, RowMisses: 46,
	}},
	{"lavaMD", compiler.SwapECC, 28981, memmodel.Stats{
		LoadAccesses: 288, StoreAccesses: 96, LoadSectors: 1152, StoreSectors: 384,
		L1Hits: 306, L1Misses: 576, MSHRMerges: 270, MSHRFullEvents: 544, MSHRWaitCycles: 1781368,
		L2Hits: 0, L2Misses: 576, RowHits: 916, RowMisses: 44,
	}},
	{"snap", compiler.Baseline, 397614, memmodel.Stats{
		LoadAccesses: 5760, StoreAccesses: 192, LoadSectors: 181632, StoreSectors: 192,
		L1Hits: 49509, L1Misses: 76364, MSHRMerges: 55759, MSHRFullEvents: 76332, MSHRWaitCycles: 415385895,
		L2Hits: 74444, L2Misses: 1920, RowHits: 1295, RowMisses: 817,
	}},
	{"snap", compiler.SwapECC, 397218, memmodel.Stats{
		LoadAccesses: 5760, StoreAccesses: 192, LoadSectors: 181632, StoreSectors: 192,
		L1Hits: 49277, L1Misses: 76251, MSHRMerges: 56104, MSHRFullEvents: 76219, MSHRWaitCycles: 413716364,
		L2Hits: 74331, L2Misses: 1920, RowHits: 1301, RowMisses: 811,
	}},
}

// TestMemModelArmedGolden holds armed launches to memGolden.
func TestMemModelArmedGolden(t *testing.T) {
	for _, g := range memGolden {
		w, err := workloads.ByName(g.workload)
		if err != nil {
			t.Fatal(err)
		}
		k, err := compiler.Apply(w.Kernel, g.scheme)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sm.DefaultConfig()
		cfg.MemModel = "sectored"
		st, _ := launchWith(t, w, k, g.scheme, cfg)
		if st.Cycles != g.cycles {
			t.Errorf("%s/%v: %d cycles, want %d", g.workload, g.scheme, st.Cycles, g.cycles)
		}
		if st.Mem == nil || *st.Mem != g.mem {
			t.Errorf("%s/%v: hierarchy counters\n got %+v\nwant %+v", g.workload, g.scheme, st.Mem, g.mem)
		}
	}
}

// TestMemModelArmedChangesTiming: arming the hierarchy must actually move
// cycle counts on a memory-bound kernel (otherwise the tier is dead code),
// while leaving functional output untouched (launchWith verifies it).
func TestMemModelArmedChangesTiming(t *testing.T) {
	w, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	flatSt, _ := launchWith(t, w, w.Kernel, compiler.Baseline, sm.DefaultConfig())
	cfg := sm.DefaultConfig()
	cfg.MemModel = "sectored"
	armedSt, _ := launchWith(t, w, w.Kernel, compiler.Baseline, cfg)
	if armedSt.Cycles == flatSt.Cycles {
		t.Errorf("armed and flat launches both took %d cycles; the hierarchy changed nothing", flatSt.Cycles)
	}
	if armedSt.DynWarpInstrs != flatSt.DynWarpInstrs {
		t.Errorf("arming the timing model changed the instruction count: %d vs %d",
			armedSt.DynWarpInstrs, flatSt.DynWarpInstrs)
	}
}

// TestMemModelUnknownRejected: a typo'd MemModel must fail the launch with
// a diagnostic naming the valid values, not silently run some path.
func TestMemModelUnknownRejected(t *testing.T) {
	w, err := workloads.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sm.DefaultConfig()
	cfg.MemModel = "sectered" // typo
	g := w.NewGPU(cfg)
	_, lerr := g.Launch(w.Kernel)
	if lerr == nil {
		t.Fatal("unknown MemModel launched cleanly")
	}
	if !strings.Contains(lerr.Error(), "sectered") || !strings.Contains(lerr.Error(), "sectored") {
		t.Errorf("diagnostic %q should name the bad value and the valid ones", lerr.Error())
	}
}
