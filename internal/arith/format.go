package arith

// fpFormat describes a binary floating-point format: E exponent bits, M
// stored mantissa bits, the usual bias. The units implement a conventional
// normalized-only datapath: an operand with a zero exponent field is treated
// as zero, rounding is truncation, and exponent overflow/underflow wraps.
// (The injected operand streams come from traced workload values, which are
// overwhelmingly normal numbers; how much these simplifications move the
// Figure 10 error-pattern statistics has not been measured. EXPERIMENTS.md
// lists them under "Known deviations".)
type fpFormat struct {
	E    int // exponent bits
	M    int // stored mantissa bits
	bias uint64
}

var (
	fp32 = fpFormat{E: 8, M: 23, bias: 127}
	fp64 = fpFormat{E: 11, M: 52, bias: 1023}
)

// total is the packed width (sign + exponent + mantissa).
func (f fpFormat) total() int { return 1 + f.E + f.M }

// alignW is the adder datapath width for FADD: implicit bit + mantissa +
// 3 guard bits.
func (f fpFormat) alignW() int { return f.M + 4 }

// unpack splits a packed value into sign, exponent, mantissa.
func (f fpFormat) unpack(v uint64) (s, e, m uint64) {
	m = v & (1<<uint(f.M) - 1)
	e = v >> uint(f.M) & (1<<uint(f.E) - 1)
	s = v >> uint(f.M+f.E) & 1
	return
}

// pack assembles a packed value.
func (f fpFormat) pack(s, e, m uint64) uint64 {
	return s<<uint(f.M+f.E) | (e&(1<<uint(f.E)-1))<<uint(f.M) | m&(1<<uint(f.M)-1)
}

// levelsFor returns the number of shifter select bits needed to cover
// shifts of 0..w-1 (the forced-zero path handles larger distances).
func levelsFor(w int) int {
	l := 1
	for 1<<uint(l) < w {
		l++
	}
	return l
}
