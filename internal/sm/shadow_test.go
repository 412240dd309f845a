package sm_test

import (
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// TestShadowElisionMatchesECCPath pins execFast's shadow-write elision
// against the path that computes every shadow. With ECC off a duplicable
// shadow instruction returns without touching a lane; with ECC on the
// generic path computes each lane and writes its check bits. Timing,
// instruction counts, the CPI stack and final memory must not tell the two
// apart, on every workload under the baseline and the four Figure 12
// schemes.
func TestShadowElisionMatchesECCPath(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	schemes := []compiler.Scheme{compiler.Baseline, compiler.SWDup, compiler.SwapECC,
		compiler.SwapPredictAddSub, compiler.SwapPredictMAD}
	shadows := 0
	for _, w := range workloads.All() {
		for _, s := range schemes {
			k, err := compiler.Apply(w.Kernel, s)
			if err != nil {
				continue // scheme not applicable (e.g. doubled CTA too large)
			}
			for _, in := range k.Code {
				if in.Flags&isa.FlagShadow != 0 {
					shadows++
				}
			}
			fast, fastMem := launchWith(t, w, k, s, sm.DefaultConfig())
			cfg := sm.DefaultConfig()
			cfg.ECC = true
			full, fullMem := launchWith(t, w, k, s, cfg)
			if fast.Cycles != full.Cycles || fast.DynWarpInstrs != full.DynWarpInstrs {
				t.Errorf("%s/%v: ECC off ran %d cycles, %d warp-instrs; ECC on %d, %d",
					w.Name, s, fast.Cycles, fast.DynWarpInstrs, full.Cycles, full.DynWarpInstrs)
			}
			if !reflect.DeepEqual(fast.CPIStack(w.Name, "x"), full.CPIStack(w.Name, "x")) {
				t.Errorf("%s/%v: CPI stack differs between ECC off and on", w.Name, s)
			}
			if !reflect.DeepEqual(fastMem, fullMem) {
				t.Errorf("%s/%v: final memory differs between ECC off and on", w.Name, s)
			}
		}
	}
	if shadows == 0 {
		t.Fatal("no kernel in the sweep carries a shadow instruction")
	}
}
