// Package trace provides the SASSI-style binary-instrumentation tools of
// Section IV-A: a duplicated-code-mix profiler that classifies every dynamic
// instruction using compiler metadata (Figure 13), and an arithmetic value
// tracer that extracts realistic operand streams from running workloads to
// drive the gate-level error injection of Figures 10 and 11.
package trace

import (
	"fmt"
	"math/rand"

	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
)

// Unit names matching internal/arith's Figure 10 units.
const (
	UnitFxPAdd32 = "FxP-Add32"
	UnitFxPMAD32 = "FxP-MAD32"
	UnitFpAdd32  = "Fp-Add32"
	UnitFpMAD32  = "Fp-MAD32"
	UnitFpAdd64  = "Fp-Add64"
	UnitFpMAD64  = "Fp-MAD64"
)

// unitNames lists the traced units in Figure 10 order; unitOf indexes it.
var unitNames = [...]string{UnitFxPAdd32, UnitFxPMAD32, UnitFpAdd32, UnitFpMAD32, UnitFpAdd64, UnitFpMAD64}

// UnitNames lists the traced units in Figure 10 order.
func UnitNames() []string { return append([]string(nil), unitNames[:]...) }

// unitIndex returns the index in unitNames of a unit name, and -1 for a
// name no traced unit has.
func unitIndex(name string) int {
	for i, n := range unitNames {
		if n == name {
			return i
		}
	}
	return -1
}

// OperandTrace accumulates operand tuples per arithmetic unit. Each unit's
// tuples sit in their own slot of a fixed array, so once a unit is full a
// goroutine may read it (Tuples, Sample) while the collecting goroutine
// still appends to the others; the caller supplies the happens-before edge
// from the fill (see OnFill).
type OperandTrace struct {
	units  [len(unitNames)][][]uint64
	limit  int
	onFill func(unit string)
}

// NewOperandTrace collects at most limit tuples per unit (the paper bounds
// its traces at 100,000 instructions; the tuple cap plays the same role).
func NewOperandTrace(limit int) *OperandTrace {
	return &OperandTrace{limit: limit}
}

// OnFill registers f to be called with a unit's name when the tracer
// appends that unit's limit-th tuple: from then on the unit's tuples are
// final. f runs on the goroutine that runs the traced launch, inside the
// tracer, once per unit; a unit that never fills is never reported.
// Call before the first launch.
func (t *OperandTrace) OnFill(f func(unit string)) { t.onFill = f }

// Func returns the sm.TraceFunc that feeds this trace. Only the lowest
// maxLane lanes are observed, mirroring the paper's 2048-lowest-threads
// bound. The opcode picks the unit before anything else is done: a call
// for a unit that is already full returns false without allocating, which
// declines the opcode for the rest of the launch (the unit can take no
// more tuples, so the trace is the same), and every other call returns
// true, a lane past maxLane included.
func (t *OperandTrace) Func(maxLane int) sm.TraceFunc {
	return func(op isa.Opcode, wide bool, lane int, a, b, c, result uint64) bool {
		u := unitOf(op)
		if u < 0 || len(t.units[u]) >= t.limit {
			return false
		}
		if lane >= maxLane {
			return true
		}
		t.units[u] = append(t.units[u], operands(op, wide, a, b, c))
		if len(t.units[u]) == t.limit && t.onFill != nil {
			t.onFill(unitNames[u])
		}
		return true
	}
}

// CanGrow reports whether launching k could add a tuple to the trace:
// whether k's code holds a traced opcode whose unit is not yet full. A
// kernel it rejects can be skipped without changing the trace.
func (t *OperandTrace) CanGrow(k *isa.Kernel) bool {
	for i := range k.Code {
		if u := unitOf(k.Code[i].Op); u >= 0 && len(t.units[u]) < t.limit {
			return true
		}
	}
	return false
}

// unitOf returns the index in unitNames of the unit that executes a traced
// opcode (isa.Opcode.Traced), and -1 for every other opcode: the pipe class
// gives the unit's format and width, and the multiplies go to its
// multiply-add.
func unitOf(op isa.Opcode) int {
	if !op.Traced() {
		return -1
	}
	var u int
	switch op.Class() {
	case isa.ClassFxP:
		u = 0
	case isa.ClassFP32:
		u = 2
	case isa.ClassFP64:
		u = 4
	default:
		return -1
	}
	switch op {
	case isa.IMUL, isa.IMAD, isa.FMUL, isa.FFMA, isa.DMUL, isa.DFMA:
		u++
	}
	return u
}

// operands builds the tuple a traced opcode feeds its unit. Subtractions
// are folded onto the adders via operand negation.
func operands(op isa.Opcode, wide bool, a, b, c uint64) []uint64 {
	switch op {
	case isa.IADD:
		return []uint64{a & 0xffffffff, b & 0xffffffff}
	case isa.ISUB:
		return []uint64{a & 0xffffffff, uint64(uint32(-int32(b)))}
	case isa.IMUL:
		return []uint64{a & 0xffffffff, b & 0xffffffff, 0}
	case isa.IMAD:
		if wide {
			return []uint64{a & 0xffffffff, b & 0xffffffff, c}
		}
		return []uint64{a & 0xffffffff, b & 0xffffffff, c & 0xffffffff}
	case isa.FADD:
		return []uint64{a & 0xffffffff, b & 0xffffffff}
	case isa.FSUB:
		return []uint64{a & 0xffffffff, (b ^ 0x80000000) & 0xffffffff}
	case isa.FMUL:
		return []uint64{a & 0xffffffff, b & 0xffffffff, 0}
	case isa.FFMA:
		return []uint64{a & 0xffffffff, b & 0xffffffff, c & 0xffffffff}
	case isa.DADD:
		return []uint64{a, b}
	case isa.DSUB:
		return []uint64{a, b ^ (1 << 63)}
	case isa.DMUL:
		return []uint64{a, b, 0}
	case isa.DFMA:
		return []uint64{a, b, c}
	}
	return nil
}

// Tuples returns the collected tuples for a unit.
func (t *OperandTrace) Tuples(unit string) [][]uint64 {
	if u := unitIndex(unit); u >= 0 {
		return t.units[u]
	}
	return nil
}

// Sample draws n tuples (with replacement) for a unit using the given seed;
// it synthesizes filler tuples deterministically if the trace is empty for
// that unit (never the case for the shipped workloads).
func (t *OperandTrace) Sample(unit string, n int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	src := t.Tuples(unit)
	out := make([][]uint64, n)
	for i := range out {
		if len(src) == 0 {
			out[i] = []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
			continue
		}
		out[i] = src[rng.Intn(len(src))]
	}
	return out
}

// Counts summarizes how many tuples each unit holds; a unit with none is
// absent.
func (t *OperandTrace) Counts() map[string]int {
	m := make(map[string]int, len(t.units))
	for u, v := range t.units {
		if len(v) > 0 {
			m[unitNames[u]] = len(v)
		}
	}
	return m
}

// CodeMix is the Figure 13 dynamic-instruction breakdown for one transformed
// program, with counts normalized against the un-duplicated baseline.
type CodeMix struct {
	Workload string
	Scheme   string
	// Fraction per category, relative to the BASELINE dynamic count (the
	// stacked bars of Figure 13 sum past 100% for duplicated programs).
	Frac map[isa.Category]float64
	// Bloat is total dynamic instructions relative to baseline, minus one.
	Bloat float64
}

// Mix computes the breakdown from transformed-run and baseline-run stats.
func Mix(workload, scheme string, transformed, baseline *sm.Stats) CodeMix {
	mix := CodeMix{Workload: workload, Scheme: scheme, Frac: make(map[isa.Category]float64)}
	base := float64(baseline.DynWarpInstrs)
	for cat, n := range transformed.PerCat {
		mix.Frac[cat] = float64(n) / base
	}
	mix.Bloat = float64(transformed.DynWarpInstrs)/base - 1
	return mix
}

// CheckingFrac returns the checking-instruction fraction (the quantity
// Figure 13 sorts programs by).
func (m CodeMix) CheckingFrac() float64 { return m.Frac[isa.CatChecking] }

// String renders one row.
func (m CodeMix) String() string {
	return fmt.Sprintf("%s/%s: notelig=%.2f pred=%.2f dup=%.2f ins=%.2f chk=%.2f (bloat %.0f%%)",
		m.Workload, m.Scheme, m.Frac[isa.CatNotEligible], m.Frac[isa.CatPredicted],
		m.Frac[isa.CatDuplicated], m.Frac[isa.CatCompilerInserted], m.Frac[isa.CatChecking],
		100*m.Bloat)
}

// OperandProfile summarizes the traced operand values of one unit — the
// evidence that the injection campaign runs on realistic data (floating-
// point operands overwhelmingly normal numbers with working-set-typical
// exponents, not uniform random bits).
type OperandProfile struct {
	Tuples int
	// ZeroFrac is the fraction of operand slots holding exact zero.
	ZeroFrac float64
	// For floating-point units: fraction of nonzero operands that are
	// normal numbers, plus the observed biased-exponent range.
	NormalFrac     float64
	MinExp, MaxExp int
}

// Profile computes the operand profile for a floating-point unit's trace
// (expBits 8 for the 32-bit units, 11 for the 64-bit ones).
func (t *OperandTrace) Profile(unit string, expBits int) OperandProfile {
	p := OperandProfile{MinExp: 1 << 16, MaxExp: -1}
	slots, zeros, normals := 0, 0, 0
	manBits := 23
	if expBits == 11 {
		manBits = 52
	}
	for _, tup := range t.Tuples(unit) {
		p.Tuples++
		for _, v := range tup {
			slots++
			if v == 0 {
				zeros++
				continue
			}
			e := int(v >> uint(manBits) & (1<<uint(expBits) - 1))
			if e != 0 && e != (1<<uint(expBits))-1 {
				normals++
				if e < p.MinExp {
					p.MinExp = e
				}
				if e > p.MaxExp {
					p.MaxExp = e
				}
			}
		}
	}
	if slots > 0 {
		p.ZeroFrac = float64(zeros) / float64(slots)
	}
	if nz := slots - zeros; nz > 0 {
		p.NormalFrac = float64(normals) / float64(nz)
	}
	return p
}
