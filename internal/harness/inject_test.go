package harness

import (
	"context"
	"testing"

	"swapcodes/internal/engine"
)

// TestTracedOperandsAreRealistic backs the injection methodology: the
// floating-point operand streams extracted from the running workloads are
// dominated by normal numbers in working-set-typical exponent bands, not
// uniform bit noise.
func TestTracedOperandsAreRealistic(t *testing.T) {
	tr, err := CollectOperandsCtx(context.Background(), engine.New(1), 2000)
	if err != nil {
		t.Fatal(err)
	}
	for unit, expBits := range map[string]int{
		"Fp-Add32": 8, "Fp-MAD32": 8, "Fp-Add64": 11, "Fp-MAD64": 11,
	} {
		p := tr.Profile(unit, expBits)
		if p.Tuples == 0 {
			t.Errorf("%s: no traced tuples", unit)
			continue
		}
		if p.NormalFrac < 0.5 {
			t.Errorf("%s: normal fraction %.2f implausibly low", unit, p.NormalFrac)
		}
		bias := 127
		if expBits == 11 {
			bias = 1023
		}
		if p.MaxExp > p.MinExp && (p.MinExp > bias+60 || p.MaxExp < bias-60) {
			t.Errorf("%s: exponent band [%d,%d] far from bias %d", unit, p.MinExp, p.MaxExp, bias)
		}
	}
	for unit, n := range tr.Counts() {
		if n == 0 {
			t.Errorf("%s: empty trace", unit)
		}
	}
}
