package sm

import (
	"math"
	"math/rand"
	"testing"

	"swapcodes/internal/isa"
)

// refillAll is refill as it was before buckets at the cap were skipped:
// every class, every round.
func refillAll(tokens *[10]float64, m *machine, delta int64) {
	for cl := isa.ClassFxP; cl <= isa.ClassSpecial; cl++ {
		tokens[cl] += m.prate[cl] * float64(delta)
		if tokens[cl] > m.tokCap {
			tokens[cl] = m.tokCap
		}
	}
}

// TestRefillBelowCapMatchesFullRefill holds the below-cap refill to the
// full one, bit for bit, after every round. pickRef shares refill, so the
// scheduler differentials cannot see a change to it, and the default rates
// are dyadic, where every sum is exact anyway. Here the rates include
// non-dyadic ones, Schedulers runs 1 to 8 (which sets the 8/Schedulers
// cap), deltas include idle-skip jumps, and issues spend random tokens.
func TestRefillBelowCapMatchesFullRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rates := []float64{0.125, 0.25, 0.5, 1, 2, 4, 0.3, 0.7, 1.7, 0.45, 3, 1.0 / 3, 1e-3}
	rate := func() float64 {
		if rng.Intn(4) == 0 {
			return 0.01 + 4*rng.Float64()
		}
		return rates[rng.Intn(len(rates))]
	}
	for trial := 0; trial < 300; trial++ {
		cfg := DefaultConfig()
		cfg.Schedulers = 1 + rng.Intn(8)
		cfg.ThrFxP, cfg.ThrFP32, cfg.ThrFP64 = rate(), rate(), rate()
		cfg.ThrSFU, cfg.ThrMove, cfg.ThrSMem = rate(), rate(), rate()
		cfg.ThrGMem, cfg.ThrSpecial, cfg.ThrCtrl = rate(), rate(), rate()
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		m := &machine{cfg: &cfg}
		m.initPartitions()
		p := m.parts[0]
		ref := p.tokens
		for round := 0; round < 400; round++ {
			for k := rng.Intn(4); k > 0; k-- {
				if cl := isa.Class(rng.Intn(int(isa.ClassSpecial) + 1)); p.tokens[cl] >= 1 {
					p.take(cl)
					ref[cl]--
				}
			}
			delta := int64(1)
			switch rng.Intn(8) {
			case 0:
				delta = 1 + rng.Int63n(300)
			case 1:
				delta = 1 + rng.Int63n(1<<40)
			}
			p.refill(delta)
			refillAll(&ref, m, delta)
			for cl := range ref {
				if math.Float64bits(p.tokens[cl]) != math.Float64bits(ref[cl]) {
					t.Fatalf("trial %d round %d (schedulers %d, delta %d): class %v holds %v tokens, full refill %v",
						trial, round, cfg.Schedulers, delta, isa.Class(cl), p.tokens[cl], ref[cl])
				}
			}
		}
	}
}
