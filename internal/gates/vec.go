package gates

// Bus-level macros used by the arithmetic unit generators. Buses are slices
// of node handles, least-significant bit first.

// ConstBus materializes a w-bit constant.
func (b *Builder) ConstBus(v uint64, w int) []int {
	bus := make([]int, w)
	for i := 0; i < w; i++ {
		if v&(1<<uint(i)) != 0 {
			bus[i] = b.one
		} else {
			bus[i] = b.zero
		}
	}
	return bus
}

// NotVec inverts every bit of a bus.
func (b *Builder) NotVec(x []int) []int {
	out := make([]int, len(x))
	for i, n := range x {
		out[i] = b.Not(n)
	}
	return out
}

// MuxVec selects x (sel=0) or y (sel=1) bitwise.
func (b *Builder) MuxVec(sel int, x, y []int) []int {
	out := make([]int, len(x))
	for i := range x {
		out[i] = b.Mux(sel, x[i], y[i])
	}
	return out
}

// AndWith masks every bit of x with the single signal s.
func (b *Builder) AndWith(s int, x []int) []int {
	out := make([]int, len(x))
	for i := range x {
		out[i] = b.And(s, x[i])
	}
	return out
}

// FullAdder returns (sum, carry) of three bits.
func (b *Builder) FullAdder(x, y, cin int) (int, int) {
	xy := b.Xor(x, y)
	sum := b.Xor(xy, cin)
	carry := b.Or(b.And(x, y), b.And(xy, cin))
	return sum, carry
}

// RippleAdder adds two equal-width buses with carry-in, returning the sum
// bus and carry-out. Ripple-carry structure keeps the netlist compact; the
// evaluator is not timing-sensitive, and the carry chain's buffer-free
// low-order bits match the real units' early-determined LSBs.
func (b *Builder) RippleAdder(x, y []int, cin int) ([]int, int) {
	if len(x) != len(y) {
		panic("gates: adder width mismatch")
	}
	sum := make([]int, len(x))
	c := cin
	for i := range x {
		sum[i], c = b.FullAdder(x[i], y[i], c)
	}
	return sum, c
}

// Subtractor computes x - y as x + ^y + 1, returning the difference and the
// carry-out (1 means no borrow).
func (b *Builder) Subtractor(x, y []int) ([]int, int) {
	return b.RippleAdder(x, b.NotVec(y), b.one)
}

// Incrementer adds the single bit inc to bus x.
func (b *Builder) Incrementer(x []int, inc int) ([]int, int) {
	sum := make([]int, len(x))
	c := inc
	for i := range x {
		sum[i] = b.Xor(x[i], c)
		c = b.And(x[i], c)
	}
	return sum, c
}

// CSA is a carry-save (3:2) compressor over three equal-width buses,
// returning the partial-sum bus and the carry bus (carry bus is shifted
// left by one by the caller).
func (b *Builder) CSA(x, y, z []int) (sum, carry []int) {
	sum = make([]int, len(x))
	carry = make([]int, len(x))
	for i := range x {
		sum[i], carry[i] = b.FullAdder(x[i], y[i], z[i])
	}
	return sum, carry
}

// shiftLeftConst shifts a bus left by k, keeping width w (zero fill).
func (b *Builder) shiftLeftConst(x []int, k, w int) []int {
	out := make([]int, w)
	for i := range out {
		if i >= k && i-k < len(x) {
			out[i] = x[i-k]
		} else {
			out[i] = b.zero
		}
	}
	return out
}

// CSATree reduces a list of equal-width addends to two using a tree of 3:2
// compressors, the structure of a Wallace-style multiplier reduction.
func (b *Builder) CSATree(addends [][]int, w int) (s, c []int) {
	// Normalize widths.
	norm := make([][]int, len(addends))
	for i, a := range addends {
		norm[i] = b.shiftLeftConst(a, 0, w)
	}
	for len(norm) > 2 {
		var next [][]int
		for i := 0; i+2 < len(norm); i += 3 {
			sum, carry := b.CSA(norm[i], norm[i+1], norm[i+2])
			next = append(next, sum, b.shiftLeftConst(carry, 1, w))
		}
		switch len(norm) % 3 {
		case 1:
			next = append(next, norm[len(norm)-1])
		case 2:
			next = append(next, norm[len(norm)-2], norm[len(norm)-1])
		}
		norm = next
	}
	if len(norm) == 1 {
		return norm[0], b.ConstBus(0, w)
	}
	return norm[0], norm[1]
}

// Multiplier builds an unsigned wx × wy multiplier: AND-gate partial
// products, CSA-tree reduction, ripple final adder. The product is
// wx+wy bits wide.
func (b *Builder) Multiplier(x, y []int) []int {
	w := len(x) + len(y)
	pps := make([][]int, len(y))
	for j := range y {
		row := b.AndWith(y[j], x)
		pps[j] = b.shiftLeftConst(row, j, w)
	}
	s, c := b.CSATree(pps, w)
	prod, _ := b.RippleAdder(s, c, b.zero)
	return prod
}

// ShiftRightVar builds a logarithmic right shifter: shift x right by the
// binary amount sh (LSB-first select bits), zero filling.
func (b *Builder) ShiftRightVar(x []int, sh []int) []int {
	cur := x
	for level, s := range sh {
		k := 1 << uint(level)
		shifted := make([]int, len(cur))
		for i := range cur {
			if i+k < len(cur) {
				shifted[i] = cur[i+k]
			} else {
				shifted[i] = b.zero
			}
		}
		cur = b.MuxVec(s, cur, shifted)
	}
	return cur
}

// ShiftLeftVar builds a logarithmic left shifter.
func (b *Builder) ShiftLeftVar(x []int, sh []int) []int {
	cur := x
	for level, s := range sh {
		k := 1 << uint(level)
		shifted := make([]int, len(cur))
		for i := range cur {
			if i-k >= 0 {
				shifted[i] = cur[i-k]
			} else {
				shifted[i] = b.zero
			}
		}
		cur = b.MuxVec(s, cur, shifted)
	}
	return cur
}

// OrReduce ORs all bits of a bus into one signal.
func (b *Builder) OrReduce(x []int) int {
	if len(x) == 0 {
		return b.zero
	}
	for len(x) > 1 {
		var next []int
		for i := 0; i+1 < len(x); i += 2 {
			next = append(next, b.Or(x[i], x[i+1]))
		}
		if len(x)%2 == 1 {
			next = append(next, x[len(x)-1])
		}
		x = next
	}
	return x[0]
}

// XorReduce XORs all bits of a bus into one signal (a parity tree).
func (b *Builder) XorReduce(x []int) int {
	if len(x) == 0 {
		return b.zero
	}
	for len(x) > 1 {
		var next []int
		for i := 0; i+1 < len(x); i += 2 {
			next = append(next, b.Xor(x[i], x[i+1]))
		}
		if len(x)%2 == 1 {
			next = append(next, x[len(x)-1])
		}
		x = next
	}
	return x[0]
}

// EACAdder is an end-around-carry adder mod 2^w - 1: the carry-out of a
// first addition is re-propagated into a conditional increment, the
// structure used for low-cost residue arithmetic (Zimmermann 1999).
func (b *Builder) EACAdder(x, y []int) []int {
	sum, cout := b.RippleAdder(x, y, b.zero)
	inc, _ := b.Incrementer(sum, cout)
	return inc
}

// LeadingZeroCount produces a count (ceil(log2(w))+1 bits) of leading zeros
// of x (from the MSB), used by floating-point normalization.
func (b *Builder) LeadingZeroCount(x []int) []int {
	w := len(x)
	bitsNeeded := 1
	for 1<<uint(bitsNeeded) <= w {
		bitsNeeded++
	}
	// Priority encode: scan from LSB to MSB so the most significant set bit
	// provides the final (dominating) mux assignment. All-zero input -> w.
	count := b.ConstBus(uint64(w), bitsNeeded)
	for i := 0; i < w; i++ {
		cBus := b.ConstBus(uint64(w-1-i), bitsNeeded)
		count = b.MuxVec(x[i], count, cBus)
	}
	return count
}

// BufVec inserts buffers on every bit of a bus (repeaters across a pipeline
// stage whose value is already final — the paper notes such buffers are
// common for least-significant output bits and make single-bit errors the
// dominant pattern).
func (b *Builder) BufVec(x []int) []int {
	out := make([]int, len(x))
	for i, n := range x {
		out[i] = b.Buf(n)
	}
	return out
}
