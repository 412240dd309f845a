package sm

import (
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
)

// TestTraceDeclineContract: once a TraceFunc declines an opcode it gets no
// further call for that opcode in the launch, not even for the declining
// instruction's remaining lanes, while the other traced opcodes keep
// arriving; the next launch with the same function observes the opcode
// again. The declined opcode's later instances run on the fast path and
// compute what an untraced launch computes.
func TestTraceDeclineContract(t *testing.T) {
	a := compiler.NewAsm("decline")
	const rTid, rA, rF, rG = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3)
	a.S2R(rTid, isa.SRTid)
	a.IAddI(rA, rTid, 1)
	a.I2F(rF, rTid)
	a.FAdd(rG, rF, rF)
	a.IAddI(rA, rA, 2)
	a.FAdd(rG, rG, rF)
	a.Stg(rTid, 0, rA)
	a.Stg(rTid, 64, rG)
	a.Exit()
	k := a.MustBuild(2, 32, 0) // two CTAs of one warp each

	const declineAt = 5 // the IADD call that declines IADD
	calls := map[isa.Opcode]int{}
	fn := TraceFunc(func(op isa.Opcode, wide bool, lane int, a, b, c, result uint64) bool {
		calls[op]++
		return op != isa.IADD || calls[op] < declineAt
	})
	plain := NewGPU(DefaultConfig(), 128)
	want, err := plain.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGPU(DefaultConfig(), 128)
	g.Trace = fn
	for launch := 1; launch <= 2; launch++ {
		clear(calls)
		st, err := g.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		if calls[isa.IADD] != declineAt {
			t.Errorf("launch %d: %d IADD calls, want %d (none after the decline)", launch, calls[isa.IADD], declineAt)
		}
		if calls[isa.FADD] != 2*2*32 {
			t.Errorf("launch %d: %d FADD calls, want %d", launch, calls[isa.FADD], 2*2*32)
		}
		if len(calls) != 2 {
			t.Errorf("launch %d: calls for %v, want IADD and FADD only", launch, calls)
		}
		if !reflect.DeepEqual(st, want) {
			t.Errorf("launch %d: Stats differ from the untraced launch", launch)
		}
		if !reflect.DeepEqual(g.Mem, plain.Mem) {
			t.Errorf("launch %d: memory differs from the untraced launch", launch)
		}
	}
}

// TestTracedOpcodesFitTheSet: the launch's set of traced opcodes is one
// 64-bit word indexed by opcode, so every isa.Opcode.Traced opcode must be
// below 64 and in tracedOps, and no other opcode may be.
func TestTracedOpcodesFitTheSet(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := isa.Opcode(i)
		if op.Traced() && i >= 64 {
			t.Errorf("%v (%d) is traced but does not fit a 64-bit set", op, i)
			continue
		}
		if in := i < 64 && tracedOps&(1<<i) != 0; in != op.Traced() {
			t.Errorf("%v: in tracedOps %v, Traced() %v", op, in, op.Traced())
		}
	}
}
