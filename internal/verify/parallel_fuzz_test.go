package verify

import (
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/sm"
)

// FuzzParallelSMEquivalence fuzzes the partitioned scheduler against the
// full-rescan reference: a generated kernel (always-terminating by
// construction), an adversarial memory pattern, a protection scheme and an
// SM configuration (DefaultConfig or one of SchedConfigs) run once under
// sm.Config.Reference and once under the default scheduler — the Stats and
// final memory must be bit-identical. This is the property the workload
// differentials (internal/sm) check on fixed programs, extended here to the
// open-ended kernel space.
func FuzzParallelSMEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(3), uint8(2), uint8(5))
	f.Add(int64(7), uint8(1), uint8(8), uint8(6))
	f.Add(int64(11), uint8(4), uint8(5), uint8(7))
	cfgs := append([]SchedConfig{{"default", sm.DefaultConfig()}}, SchedConfigs()...)
	f.Fuzz(func(t *testing.T, seed int64, pat, schemeIdx, cfgIdx uint8) {
		patterns := Patterns()
		p := patterns[int(pat)%len(patterns)]
		scheme := allSchemes[int(schemeIdx)%len(allSchemes)]
		cfg := cfgs[int(cfgIdx)%len(cfgs)]
		base, mem := GenKernel(seed, 3, 96)
		k, err := compiler.Apply(base, scheme)
		if err != nil {
			return // scheme not applicable to this kernel shape
		}
		fill := GenFill(p, seed)

		run := func(c sm.Config) (*sm.Stats, []uint32) {
			g := sm.NewGPU(c, mem)
			fill(g)
			st, err := g.Launch(k)
			if err != nil {
				t.Fatalf("seed=%d pattern=%s scheme=%v config=%s: %v", seed, p.Name, scheme, cfg.Name, err)
			}
			return st, g.Mem
		}

		ref := cfg.Cfg
		ref.Reference = true
		refSt, refMem := run(ref)
		st, gm := run(cfg.Cfg)
		if !reflect.DeepEqual(st, refSt) {
			t.Fatalf("seed=%d pattern=%s scheme=%v config=%s: Stats diverge\n got %+v\nwant %+v",
				seed, p.Name, scheme, cfg.Name, st, refSt)
		}
		if !reflect.DeepEqual(gm, refMem) {
			t.Fatalf("seed=%d pattern=%s scheme=%v config=%s: memory diverges", seed, p.Name, scheme, cfg.Name)
		}
	})
}
