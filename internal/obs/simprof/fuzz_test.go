package simprof_test

import (
	"bytes"
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
)

// realBundle records two small SM launches on one flight recorder: a
// Swap-ECC fault the register file flags (due decisions) and an SW-Dup
// fault its checks trap on (a trap decision). Both log their warps'
// resident decisions.
func realBundle(tb testing.TB) []byte {
	tb.Helper()
	a := compiler.NewAsm("chain")
	a.S2R(0, isa.SRTid)
	a.IAddI(1, 0, 100)
	a.IMulI(2, 1, 3)
	a.IAdd(1, 2, 0)
	a.Stg(0, 0, 1)
	a.Exit()
	base := a.MustBuild(1, 32, 0)
	fr := simprof.NewFlightRecorder(0)
	for _, s := range []compiler.Scheme{compiler.SwapECC, compiler.SWDup} {
		cfg := sm.DefaultConfig()
		cfg.ECC = true
		g := sm.NewGPU(cfg, 64)
		g.Fault = &sm.FaultPlan{TargetDynInstr: 2, Lane: 2, BitMask: 4}
		g.Flight = fr
		if _, err := g.Launch(compiler.MustApply(base, s)); err != nil {
			tb.Fatal(err)
		}
	}
	raw := fr.Bundle()
	b, err := simprof.ReadBundle(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	kinds := map[simprof.Kind]bool{}
	for _, ds := range b.Partitions {
		for _, d := range ds {
			kinds[d.Kind] = true
		}
	}
	if !kinds[simprof.KindResident] || !kinds[simprof.KindDue] || !kinds[simprof.KindTrap] {
		tb.Fatalf("seed bundle lacks a resident, due or trap decision: %v", kinds)
	}
	return raw
}

// FuzzReadBundle feeds arbitrary bytes to the bundle reader, which the job
// server and replay tooling run on files from disk. No input may panic it
// or make it allocate past MaxBundlePartitions streams, and the writer
// re-encodes whatever it accepts to the same decision streams. The seeds
// are a crafted bundle naming partition 100000 and a real bundle.
func FuzzReadBundle(f *testing.F) {
	f.Add([]byte(`{"type":"meta","meta":{"kernel":"k","scheme":"s","cycle":0,"reason":"r"}}
{"type":"decision","part":100000,"c":1,"k":1}
{"type":"end","count":1}
`))
	f.Add(realBundle(f))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := simprof.ReadBundle(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(b.Partitions) > simprof.MaxBundlePartitions {
			t.Fatalf("%d partition streams, past the bound of %d", len(b.Partitions), simprof.MaxBundlePartitions)
		}
		longest := len(b.Merge)
		for _, ds := range b.Partitions {
			longest = max(longest, len(ds))
		}
		if (len(b.Partitions)+1)*longest > 1<<16 {
			return // re-encoding would size every ring for the longest stream
		}
		fr := simprof.NewFlightRecorder(max(longest, 1))
		for i, ds := range b.Partitions {
			r := fr.Partition(i)
			for _, d := range ds {
				r.Add(d)
			}
		}
		for _, d := range b.Merge {
			fr.MergeRing().Add(d)
		}
		again, err := simprof.ReadBundle(bytes.NewReader(fr.Bundle()))
		if err != nil {
			t.Fatalf("re-encoded bundle refused: %v", err)
		}
		if !reflect.DeepEqual(again.Partitions, b.Partitions) || !reflect.DeepEqual(again.Merge, b.Merge) {
			t.Fatal("re-encoded bundle decodes to different decision streams")
		}
	})
}
