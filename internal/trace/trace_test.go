package trace

import (
	"math"
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
)

func TestClassifyMapping(t *testing.T) {
	cases := []struct {
		op    isa.Opcode
		wide  bool
		unit  string
		arity int
	}{
		{isa.IADD, false, UnitFxPAdd32, 2},
		{isa.ISUB, false, UnitFxPAdd32, 2},
		{isa.IMUL, false, UnitFxPMAD32, 3},
		{isa.IMAD, true, UnitFxPMAD32, 3},
		{isa.FADD, false, UnitFpAdd32, 2},
		{isa.FSUB, false, UnitFpAdd32, 2},
		{isa.FFMA, false, UnitFpMAD32, 3},
		{isa.DADD, false, UnitFpAdd64, 2},
		{isa.DFMA, false, UnitFpMAD64, 3},
	}
	for _, c := range cases {
		u, tuple := unitOf(c.op), operands(c.op, c.wide, 1, 2, 3)
		if u < 0 || unitNames[u] != c.unit || len(tuple) != c.arity {
			t.Errorf("%v: unit=%d arity=%d, want %s/%d", c.op, u, len(tuple), c.unit, c.arity)
		}
	}
	if unitOf(isa.LDG) >= 0 {
		t.Error("non-arithmetic opcode classified")
	}
}

// TestTracedOpcodesAreTheMappedOnes: the opcodes isa.Opcode.Traced accepts
// — the only ones the simulator hands the tracer — are exactly the opcodes
// the trace maps onto a unit, and they are the twelve that feed the six
// Figure 10 units, each onto its own unit.
func TestTracedOpcodesAreTheMappedOnes(t *testing.T) {
	want := map[isa.Opcode]string{
		isa.IADD: UnitFxPAdd32, isa.ISUB: UnitFxPAdd32,
		isa.IMUL: UnitFxPMAD32, isa.IMAD: UnitFxPMAD32,
		isa.FADD: UnitFpAdd32, isa.FSUB: UnitFpAdd32,
		isa.FMUL: UnitFpMAD32, isa.FFMA: UnitFpMAD32,
		isa.DADD: UnitFpAdd64, isa.DSUB: UnitFpAdd64,
		isa.DMUL: UnitFpMAD64, isa.DFMA: UnitFpMAD64,
	}
	for i := 0; i < 256; i++ {
		op := isa.Opcode(i)
		u := unitOf(op)
		if op.Traced() != (u >= 0) {
			t.Errorf("%v: Traced() = %v but unit index %d", op, op.Traced(), u)
		}
		unit := ""
		if u >= 0 {
			unit = unitNames[u]
		}
		if unit != want[op] {
			t.Errorf("%v maps to unit %q, want %q", op, unit, want[op])
		}
		if got := operands(op, false, 1, 2, 3); (got != nil) != op.Traced() {
			t.Errorf("%v: operand tuple %v for Traced() = %v", op, got, op.Traced())
		}
	}
}

func TestSubtractionNegatesOperand(t *testing.T) {
	tup := operands(isa.ISUB, false, 10, 3, 0)
	if tup[1] != uint64(^uint32(3)+1) {
		t.Errorf("ISUB operand b = %#x, want two's complement of 3", tup[1])
	}
	ftup := operands(isa.FSUB, false, 0, uint64(math.Float32bits(2.5)), 0)
	if ftup[1] != uint64(math.Float32bits(-2.5)) {
		t.Errorf("FSUB operand b = %#x, want sign-flipped 2.5", ftup[1])
	}
	dtup := operands(isa.DSUB, false, 0, math.Float64bits(1.5), 0)
	if dtup[1] != math.Float64bits(-1.5) {
		t.Error("DSUB operand b should be sign-flipped")
	}
}

// kernelTrace traces a one-warp kernel (S2R, I2F, FADD, FFMA, IADD, STG)
// with the lowest 8 lanes observed.
func kernelTrace(t testing.TB, limit int) *OperandTrace {
	t.Helper()
	a := compiler.NewAsm("tr")
	const rTid, rF, rG, rD = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3)
	a.S2R(rTid, isa.SRTid)
	a.I2F(rF, rTid)
	a.FAdd(rG, rF, rF)
	a.FFma(rG, rF, rF, rG)
	a.IAddI(rD, rTid, 5)
	a.Stg(rTid, 0, rD)
	a.Exit()
	tr := NewOperandTrace(limit)
	g := sm.NewGPU(sm.DefaultConfig(), 64)
	g.Trace = tr.Func(8)
	if _, err := g.Launch(a.MustBuild(1, 32, 0)); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOperandTraceCollectsFromKernel(t *testing.T) {
	tr := kernelTrace(t, 100)
	counts := tr.Counts()
	if counts[UnitFpAdd32] != 8 { // 8 observed lanes
		t.Errorf("FpAdd tuples %d, want 8", counts[UnitFpAdd32])
	}
	if counts[UnitFpMAD32] != 8 || counts[UnitFxPAdd32] != 8 {
		t.Errorf("counts %v", counts)
	}
	// The FADD tuples hold real values: lane L's operand is float32(L) twice.
	for _, tup := range tr.Tuples(UnitFpAdd32) {
		if tup[0] != tup[1] {
			t.Errorf("FADD operands differ: %#x %#x", tup[0], tup[1])
		}
	}
}

// TestOperandTraceLimitAndLaneBound: the tracer keeps the lowest maxLane
// lanes up to the limit, and declines an opcode (returns false) exactly
// when its unit is full, whatever the lane.
func TestOperandTraceLimitAndLaneBound(t *testing.T) {
	tr := NewOperandTrace(3)
	f := tr.Func(4)
	for lane := 0; lane < 32; lane++ {
		want := lane < 3 // lane 2's tuple fills the unit
		if got := f(isa.IADD, false, lane, 1, 2, 0, 3); got != want {
			t.Errorf("lane %d: IADD call returned %v, want %v", lane, got, want)
		}
	}
	if got := tr.Counts()[UnitFxPAdd32]; got != 3 {
		t.Errorf("limit not enforced: %d", got)
	}
	if !f(isa.FADD, false, 4, 1, 2, 0, 3) {
		t.Error("FADD call past the lane bound declined though Fp-Add32 has room")
	}
	if f(isa.ISUB, false, 0, 1, 2, 0, 3) {
		t.Error("ISUB call accepted though FxP-Add32 is full")
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	tr := NewOperandTrace(10)
	f := tr.Func(32)
	for i := 0; i < 10; i++ {
		f(isa.IADD, false, 0, uint64(i), uint64(i*2), 0, 0)
	}
	a := tr.Sample(UnitFxPAdd32, 20, 7)
	b := tr.Sample(UnitFxPAdd32, 20, 7)
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatal("sampling not deterministic")
		}
	}
	// Unknown unit synthesizes filler rather than failing.
	c := tr.Sample("Fp-MAD64", 5, 1)
	if len(c) != 5 {
		t.Error("filler sampling broken")
	}
}

func TestMixComputesFractions(t *testing.T) {
	base := &sm.Stats{DynWarpInstrs: 100}
	transformed := &sm.Stats{DynWarpInstrs: 180, PerCat: map[isa.Category]int64{
		isa.CatNotEligible: 40, isa.CatDuplicated: 100, isa.CatChecking: 30, isa.CatCompilerInserted: 10,
	}}
	m := Mix("w", "s", transformed, base)
	if m.Frac[isa.CatChecking] != 0.3 || m.Frac[isa.CatDuplicated] != 1.0 {
		t.Errorf("fractions %v", m.Frac)
	}
	if m.Bloat != 0.8 {
		t.Errorf("bloat %v, want 0.8", m.Bloat)
	}
	if m.CheckingFrac() != 0.3 {
		t.Error("checking frac")
	}
	if m.String() == "" {
		t.Error("empty render")
	}
	if len(UnitNames()) != 6 {
		t.Error("unit list")
	}
}

// TestFuncFullUnitDoesNotAllocate: once a unit holds limit tuples, a call
// for it returns before building a tuple.
func TestFuncFullUnitDoesNotAllocate(t *testing.T) {
	tr := NewOperandTrace(4)
	f := tr.Func(8)
	for i := 0; i < 4; i++ {
		f(isa.DFMA, false, 0, 1, 2, 3, 0)
	}
	if n := testing.AllocsPerRun(100, func() { f(isa.DFMA, false, 0, 1, 2, 3, 0) }); n != 0 {
		t.Errorf("call for a full unit allocates %v times", n)
	}
	if got := tr.Counts()[UnitFpMAD64]; got != 4 {
		t.Errorf("Fp-MAD64 holds %d tuples, want 4", got)
	}
}

// TestCanGrow: a kernel can grow the trace only through a traced opcode
// whose unit still has room.
func TestCanGrow(t *testing.T) {
	kernel := func(ops ...isa.Opcode) *isa.Kernel {
		k := &isa.Kernel{}
		for _, op := range ops {
			k.Code = append(k.Code, isa.Instr{Op: op})
		}
		return k
	}
	tr := NewOperandTrace(1)
	tr.Func(8)(isa.IADD, false, 0, 1, 2, 0, 0)
	for _, c := range []struct {
		k    *isa.Kernel
		want bool
	}{
		{kernel(isa.IADD, isa.ISUB, isa.MOV, isa.EXIT), false}, // FxP-Add32 is full
		{kernel(isa.LDG, isa.MUFU, isa.AND, isa.EXIT), false},  // nothing traced
		{kernel(isa.IADD, isa.DSUB, isa.EXIT), true},           // Fp-Add64 has room
		{kernel(isa.IMUL, isa.EXIT), true},                     // FxP-MAD32 has room
	} {
		if got := tr.CanGrow(c.k); got != c.want {
			t.Errorf("CanGrow(%v) = %v, want %v", c.k.Code, got, c.want)
		}
	}
}

// TestOnFillReportsEachUnitOnce: the tracer reports a unit when it appends
// the unit's limit-th tuple, once, and never a unit below its limit.
func TestOnFillReportsEachUnitOnce(t *testing.T) {
	tr := NewOperandTrace(3)
	var filled []string
	tr.OnFill(func(unit string) {
		if got := len(tr.Tuples(unit)); got != 3 {
			t.Errorf("%s reported full at %d tuples", unit, got)
		}
		filled = append(filled, unit)
	})
	f := tr.Func(8)
	for i := 0; i < 5; i++ {
		f(isa.DFMA, false, 0, 1, 2, 3, 0)
		f(isa.IADD, false, 0, 1, 2, 0, 0)
		if i < 2 {
			f(isa.FADD, false, 0, 1, 2, 0, 0)
		}
	}
	if want := []string{UnitFpMAD64, UnitFxPAdd32}; !reflect.DeepEqual(filled, want) {
		t.Errorf("filled %v, want %v", filled, want)
	}
}
