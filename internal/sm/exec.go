package sm

import (
	"fmt"
	"math"
	"math/bits"

	"swapcodes/internal/core"
	"swapcodes/internal/ecc"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs/simprof"
)

func f32Bits(f float32) uint32     { return math.Float32bits(f) }
func f32FromBits(b uint32) float32 { return math.Float32frombits(b) }
func f64Bits(f float64) uint64     { return math.Float64bits(f) }
func f64FromBits(b uint64) float64 { return math.Float64frombits(b) }

// DUEError reports a halted simulation after the register-file decoder
// flagged a pipeline error (Config.HaltOnDUE).
type DUEError struct {
	Kernel string
	Reg    isa.Reg
	Lane   int
}

// Error implements error.
func (e *DUEError) Error() string {
	return fmt.Sprintf("sm: kernel %s: pipeline DUE on %v lane %d", e.Kernel, e.Reg, e.Lane)
}

// oobError is the single out-of-bounds diagnostic for every memory-access
// path — vectorized, scalar, store, and atomic. Each path used to format
// its own message and the shared/scalar variants dropped the faulting lane,
// which is the one field that localizes the bad thread; now every fault
// reports kernel, opcode, address, lane, and address space identically.
func (m *machine) oobError(op isa.Opcode, addr, lane int) error {
	space := "global"
	if op == isa.LDS || op == isa.STS {
		space = "shared"
	}
	return fmt.Errorf("sm: kernel %s: %v out of bounds: %d (lane %d, %s memory)",
		m.k.Name, op, addr, lane, space)
}

func (w *warpState) readR(r isa.Reg, lane int) uint32 {
	if r == isa.RZ {
		return 0
	}
	return w.regs[int(r)*isa.WarpSize+lane]
}

func (w *warpState) read64(r isa.Reg, lane int) uint64 {
	return uint64(w.readR(r, lane)) | uint64(w.readR(r+1, lane))<<32
}

// zeroLanes backs RZ operand slices; it is read-only.
var zeroLanes [isa.WarpSize]uint32

// laneSlice returns the 32-lane value slice of a register (RZ reads zeros).
func (w *warpState) laneSlice(r isa.Reg) []uint32 {
	if r == isa.RZ {
		return zeroLanes[:]
	}
	return w.regs[int(r)*isa.WarpSize : int(r)*isa.WarpSize+isa.WarpSize]
}

// activeMask applies the guard predicate to the warp's current mask.
func (w *warpState) activeMask(in *isa.Instr) uint32 {
	mask := w.top().mask
	if in.Unconditional() {
		return mask
	}
	bits := w.preds[in.GuardPred]
	if in.GuardNeg {
		bits = ^bits
	}
	return mask & bits
}

// exec functionally executes one warp instruction, including control flow
// and the ECC-protected register-file bookkeeping. Global-memory effects are
// deferred to the partition's write log (committed at the barrier); loads
// read committed memory through the partition's own-store overlay.
func (p *partition) exec(w *warpState, in *isa.Instr) error {
	m := p.m
	mask := w.activeMask(in)
	injectNow := m.g.Fault != nil && !m.g.Fault.Applied && m.dyn-1 == m.g.Fault.TargetDynInstr

	// Armed memory hierarchy: coalesce and log this access's sectors before
	// dispatch (an LDG's destination may alias its address register, so the
	// addresses must be read now). One nil-check branch on the off path.
	if m.mh != nil && mask != 0 && (in.Op == isa.LDG || in.Op == isa.STG) {
		p.logMem(w, in, mask)
	}

	// ECC mode: run every source register of active lanes through the
	// decoder, as a real read port would.
	if w.rf != nil && mask != 0 {
		if err := m.eccCheckSources(w, in, mask); err != nil {
			return err
		}
	}

	switch in.Op {
	case isa.BRA:
		return m.execBranch(w, in)
	case isa.EXIT:
		p.execExit(w, mask)
		return nil
	case isa.BPT:
		if mask != 0 {
			p.trapped = true
			if p.fr != nil {
				p.fr.Add(simprof.Decision{Cycle: m.cycle, Warp: int32(w.gid),
					PC: w.top().pc, Kind: simprof.KindTrap})
			}
			p.execExit(w, w.top().mask)
			return nil
		}
		w.advancePC()
		return nil
	case isa.BAR:
		// Arrival is logged, not applied: the CTA's other warps may live in
		// other partitions, so cta.arrived moves only at the merge, which
		// also runs the release check (applyCTAEvents).
		w.advancePC()
		w.atBarrier = true
		p.events = append(p.events, ctaEvent{cta: w.cta, arrive: true})
		return nil
	case isa.NOP:
		w.advancePC()
		return nil
	case isa.ISETP, isa.FSETP:
		m.execSetp(w, in, mask)
		w.advancePC()
		return nil
	case isa.STG, isa.STS:
		err := p.execStore(w, in, mask)
		w.advancePC()
		return err
	case isa.ATOM:
		return p.execAtom(w, in, mask, injectNow)
	}

	// Register-writing instructions: the common cases take the fused
	// per-opcode lane loops; everything else goes through the generic
	// compute/writeback pair, and so do the opcodes an armed tracer still
	// observes, which it reads lane by lane before the write.
	traced := m.traced&(1<<in.Op) != 0
	if w.rf == nil && !injectNow && !traced {
		if done, err := p.execFast(w, in, mask); done || err != nil {
			if err != nil {
				return err
			}
			w.advancePC()
			return nil
		}
	}
	var res, resHi [isa.WarpSize]uint32
	wide := in.Is64Dst()
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		lo, hi, err := p.compute(w, in, lane)
		if err != nil {
			return err
		}
		res[lane] = lo
		resHi[lane] = hi
		if traced && !m.traceLane(w, in, lane, uint64(lo)|uint64(hi)<<32) {
			traced = false
			m.traced &^= 1 << in.Op
		}
	}
	m.writeback(w, in, mask, &res, &resHi, wide, injectNow)
	w.advancePC()
	return nil
}

// execFast handles the hot value-producing opcodes with one fused loop per
// opcode, writing lanes directly into the destination register. It is only
// entered when nothing observes intermediate state (no ECC register file, no
// armed fault, no tracer that observes the opcode), and bails out (false) on
// anything unusual so the generic path stays the single source of truth for
// rare shapes. Cross-lane reads (SHFL) are excluded: in-place writes would
// corrupt them when the destination aliases the source.
//
// A Swap-ECC/Swap-Predict shadow of a duplicable opcode is done without
// touching a lane: with no ECC register file writeLane masks a shadow write
// to nothing, and those opcodes cannot fail in compute, so the generic path
// would compute every lane and discard it. (issue still updates the
// scoreboard, so the shadow's timing is unchanged.)
func (p *partition) execFast(w *warpState, in *isa.Instr, mask uint32) (bool, error) {
	if in.Flags&isa.FlagShadow != 0 {
		return in.Op.DupEligible(), nil
	}
	if in.Dst == isa.RZ || in.Is64Dst() {
		return false, nil
	}
	m := p.m
	d := w.laneSlice(in.Dst)
	a := w.laneSlice(in.Src[0])
	var b []uint32
	var bb [isa.WarpSize]uint32
	if in.HasImm {
		imm := uint32(in.Imm)
		for l := range bb {
			bb[l] = imm
		}
		b = bb[:]
	} else {
		b = w.laneSlice(in.Src[1])
	}
	switch in.Op {
	case isa.IADD:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] + b[l]
			}
		}
	case isa.ISUB:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] - b[l]
			}
		}
	case isa.IMUL:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] * b[l]
			}
		}
	case isa.IMAD:
		if in.Wide {
			return false, nil
		}
		c := w.laneSlice(in.Src[2])
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l]*b[l] + c[l]
			}
		}
	case isa.AND:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] & b[l]
			}
		}
	case isa.OR:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] | b[l]
			}
		}
	case isa.XOR:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] ^ b[l]
			}
		}
	case isa.SHL:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] << (b[l] & 31)
			}
		}
	case isa.SHR:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = a[l] >> (b[l] & 31)
			}
		}
	case isa.MOV:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = b[l] | a[l]
			}
		}
	case isa.FADD:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = f32Bits(f32FromBits(a[l]) + f32FromBits(b[l]))
			}
		}
	case isa.FSUB:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = f32Bits(f32FromBits(a[l]) - f32FromBits(b[l]))
			}
		}
	case isa.FMUL:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = f32Bits(f32FromBits(a[l]) * f32FromBits(b[l]))
			}
		}
	case isa.FFMA:
		c := w.laneSlice(in.Src[2])
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = f32Bits(float32(math.FMA(float64(f32FromBits(a[l])),
					float64(f32FromBits(b[l])), float64(f32FromBits(c[l])))))
			}
		}
	case isa.I2F:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = f32Bits(float32(int32(a[l])))
			}
		}
	case isa.F2I:
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				f := f32FromBits(a[l])
				if f != f { // NaN
					d[l] = 0
				} else {
					d[l] = uint32(int32(f))
				}
			}
		}
	case isa.S2R:
		sr := isa.SpecialReg(in.Imm)
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				d[l] = m.special(w, sr, l)
			}
		}
	case isa.LDS:
		shared := w.cta.shared
		overlay := len(p.slog) > 0
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) == 0 {
				continue
			}
			addr := int(int32(a[l])) + int(in.Imm)
			if addr < 0 || addr >= len(shared) {
				return true, m.oobError(isa.LDS, addr, l)
			}
			if overlay {
				if v, ok := p.lookupS(w.cta, int32(addr)); ok {
					d[l] = v
					continue
				}
			}
			d[l] = shared[addr]
		}
	case isa.LDG:
		mem := m.g.Mem
		overlay := len(p.wlog) > 0
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) == 0 {
				continue
			}
			addr := int(int32(a[l])) + int(in.Imm)
			if addr < 0 || addr >= len(mem) {
				return true, m.oobError(isa.LDG, addr, l)
			}
			if overlay {
				if v, ok := p.lookupW(int32(addr)); ok {
					d[l] = v
					continue
				}
			}
			d[l] = mem[addr]
		}
	default:
		return false, nil
	}
	return true, nil
}

// compute evaluates one lane of a value-producing instruction.
func (p *partition) compute(w *warpState, in *isa.Instr, lane int) (lo, hi uint32, err error) {
	m := p.m
	a := w.readR(in.Src[0], lane)
	var b uint32
	if in.HasImm {
		b = uint32(in.Imm)
	} else {
		b = w.readR(in.Src[1], lane)
	}
	switch in.Op {
	case isa.IADD:
		return a + b, 0, nil
	case isa.ISUB:
		return a - b, 0, nil
	case isa.IMUL:
		return a * b, 0, nil
	case isa.IMAD:
		if in.Wide {
			z := uint64(a)*uint64(b) + w.read64(in.Src[2], lane)
			return uint32(z), uint32(z >> 32), nil
		}
		return a*b + w.readR(in.Src[2], lane), 0, nil
	case isa.AND:
		return a & b, 0, nil
	case isa.OR:
		return a | b, 0, nil
	case isa.XOR:
		return a ^ b, 0, nil
	case isa.SHL:
		return a << (b & 31), 0, nil
	case isa.SHR:
		return a >> (b & 31), 0, nil
	case isa.FADD:
		return f32Bits(f32FromBits(a) + f32FromBits(b)), 0, nil
	case isa.FSUB:
		return f32Bits(f32FromBits(a) - f32FromBits(b)), 0, nil
	case isa.FMUL:
		return f32Bits(f32FromBits(a) * f32FromBits(b)), 0, nil
	case isa.FFMA:
		c := f32FromBits(w.readR(in.Src[2], lane))
		return f32Bits(float32(math.FMA(float64(f32FromBits(a)), float64(f32FromBits(b)), float64(c)))), 0, nil
	case isa.DADD:
		z := f64Bits(f64FromBits(w.read64(in.Src[0], lane)) + f64FromBits(w.read64(in.Src[1], lane)))
		return uint32(z), uint32(z >> 32), nil
	case isa.DSUB:
		z := f64Bits(f64FromBits(w.read64(in.Src[0], lane)) - f64FromBits(w.read64(in.Src[1], lane)))
		return uint32(z), uint32(z >> 32), nil
	case isa.DMUL:
		z := f64Bits(f64FromBits(w.read64(in.Src[0], lane)) * f64FromBits(w.read64(in.Src[1], lane)))
		return uint32(z), uint32(z >> 32), nil
	case isa.DFMA:
		z := f64Bits(math.FMA(f64FromBits(w.read64(in.Src[0], lane)),
			f64FromBits(w.read64(in.Src[1], lane)),
			f64FromBits(w.read64(in.Src[2], lane))))
		return uint32(z), uint32(z >> 32), nil
	case isa.MUFU:
		x := float64(f32FromBits(a))
		var v float64
		switch in.Mod {
		case isa.FnRCP:
			v = 1 / x
		case isa.FnSQRT:
			v = math.Sqrt(x)
		case isa.FnEX2:
			v = math.Exp2(x)
		case isa.FnLG2:
			v = math.Log2(x)
		}
		return f32Bits(float32(v)), 0, nil
	case isa.I2F:
		return f32Bits(float32(int32(a))), 0, nil
	case isa.F2I:
		f := f32FromBits(a)
		if f != f { // NaN
			return 0, 0, nil
		}
		return uint32(int32(f)), 0, nil
	case isa.MOV:
		return b | a, 0, nil // MOV d,s has Src[0]=s; MovI has Src[0]=RZ and imm
	case isa.S2R:
		return m.special(w, isa.SpecialReg(in.Imm), lane), 0, nil
	case isa.SHFL:
		src := lane ^ int(in.Imm&31)
		return w.readR(in.Src[0], src), 0, nil
	case isa.LDG:
		addr := int(int32(a)) + int(in.Imm)
		if addr < 0 || addr >= len(m.g.Mem) {
			return 0, 0, m.oobError(isa.LDG, addr, lane)
		}
		if len(p.wlog) > 0 {
			if v, ok := p.lookupW(int32(addr)); ok {
				return v, 0, nil
			}
		}
		return m.g.Mem[addr], 0, nil
	case isa.LDS:
		addr := int(int32(a)) + int(in.Imm)
		if addr < 0 || addr >= len(w.cta.shared) {
			return 0, 0, m.oobError(isa.LDS, addr, lane)
		}
		if len(p.slog) > 0 {
			if v, ok := p.lookupS(w.cta, int32(addr)); ok {
				return v, 0, nil
			}
		}
		return w.cta.shared[addr], 0, nil
	}
	return 0, 0, fmt.Errorf("sm: kernel %s: unimplemented opcode %v", m.k.Name, in.Op)
}

// execAtom captures an ATOM for barrier replay: per-lane addresses and
// operands are latched now (program-order reads of the issuing warp), the
// read-modify-write happens at the barrier in partition order, and the warp
// is parked for the rest of the round so no younger instruction can slip in
// between (see atomOp).
func (p *partition) execAtom(w *warpState, in *isa.Instr, mask uint32, injectNow bool) error {
	m := p.m
	op := &atomOp{w: w, in: in, mask: mask, inject: injectNow}
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		a := w.readR(in.Src[0], lane)
		addr := int(int32(a)) + int(in.Imm)
		if addr < 0 || addr >= len(m.g.Mem) {
			return m.oobError(isa.ATOM, addr, lane)
		}
		op.addr[lane] = int32(addr)
		op.val[lane] = w.readR(in.Src[1], lane)
		op.cmp[lane] = w.readR(in.Src[2], lane)
	}
	p.wlog = append(p.wlog, memEvent{atom: op})
	w.atomHold = true
	p.parks++
	if p.fr != nil {
		p.fr.Add(simprof.Decision{Cycle: m.cycle, Warp: int32(w.gid),
			PC: w.top().pc, Kind: simprof.KindPark})
	}
	w.advancePC()
	return nil
}

// traceLane forwards one executed lane of a traced opcode
// (isa.Opcode.Traced) to the value tracer and reports whether the tracer
// wants more of the opcode.
func (m *machine) traceLane(w *warpState, in *isa.Instr, lane int, result uint64) bool {
	var a, b, c uint64
	switch in.Op {
	case isa.DADD, isa.DSUB, isa.DMUL:
		a = w.read64(in.Src[0], lane)
		b = w.read64(in.Src[1], lane)
	case isa.DFMA:
		a = w.read64(in.Src[0], lane)
		b = w.read64(in.Src[1], lane)
		c = w.read64(in.Src[2], lane)
	default:
		a = uint64(w.readR(in.Src[0], lane))
		if in.HasImm {
			b = uint64(uint32(in.Imm))
		} else {
			b = uint64(w.readR(in.Src[1], lane))
		}
		if in.Op == isa.IMAD && in.Wide {
			c = w.read64(in.Src[2], lane)
		} else {
			c = uint64(w.readR(in.Src[2], lane))
		}
	}
	return m.g.Trace(in.Op, in.Wide, lane, a, b, c, result)
}

func (m *machine) special(w *warpState, sr isa.SpecialReg, lane int) uint32 {
	switch sr {
	case isa.SRTid:
		return uint32(w.idInCTA*isa.WarpSize + lane)
	case isa.SRCtaid:
		return uint32(w.cta.id)
	case isa.SRNTid:
		return uint32(m.k.CTAThreads)
	case isa.SRNCta:
		return uint32(m.k.GridCTAs)
	case isa.SRLane:
		return uint32(lane)
	case isa.SRWarp:
		return uint32(w.idInCTA)
	}
	return 0
}

// writeback commits results, applying the swap-coded register-file
// semantics and any armed pipeline-fault injection.
func (m *machine) writeback(w *warpState, in *isa.Instr, mask uint32, res, resHi *[isa.WarpSize]uint32, wide bool, injectNow bool) {
	if in.Dst == isa.RZ {
		if injectNow {
			m.g.Fault.Applied, m.g.Fault.Cycle = true, m.cycle // fault landed in a discarded result
		}
		return
	}
	fp := m.g.Fault
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		trueLo, trueHi := res[lane], resHi[lane]
		lo, hi := trueLo, trueHi
		if injectNow && lane == fp.Lane {
			lo ^= fp.BitMask
			hi ^= fp.BitMaskHi
			fp.Applied, fp.Cycle = true, m.cycle
		}
		if wide && w.rf != nil && in.Flags&isa.FlagPredicted != 0 {
			// Compute both halves' predicted check bits BEFORE either write
			// lands: the destination pair may overlap a source register
			// (predicted accumulation), and the prediction must see the
			// pre-write residues.
			loChk := m.predictedCheck(w, in, int(in.Dst), lane, trueLo)
			hiChk := m.predictedCheck(w, in, int(in.Dst)+1, lane, trueHi)
			w.rf.WritePredicted(int(in.Dst), lane, lo, loChk)
			w.rf.WritePredicted(int(in.Dst)+1, lane, hi, hiChk)
			w.regs[int(in.Dst)*isa.WarpSize+lane] = lo
			w.regs[(int(in.Dst)+1)*isa.WarpSize+lane] = hi
			continue
		}
		m.writeLane(w, in, int(in.Dst), lane, lo, trueLo)
		if wide {
			m.writeLane(w, in, int(in.Dst)+1, lane, hi, trueHi)
		}
	}
}

// writeLane writes one register of one lane, with the Table II write-back
// semantics: a shadow instruction's write is masked to the ECC check bits;
// a predicted instruction's check bits come from the (error-free)
// prediction pipeline; a propagated move carries the stored ECC word.
func (m *machine) writeLane(w *warpState, in *isa.Instr, reg, lane int, value, trueValue uint32) {
	if w.rf != nil {
		switch {
		case in.Flags&isa.FlagShadow != 0:
			// ECC-only write: architectural data unchanged.
			w.rf.WriteShadow(reg, lane, value)
			return
		case in.Flags&isa.FlagPredicted != 0 && in.Op == isa.MOV && !in.HasImm:
			// End-to-end move propagation (Figure 4): the full stored ECC
			// word rides along; a datapath error corrupts only the data.
			w.rf.PropagateMove(reg, int(in.Src[0]), lane)
			w.rf.WritePredicted(reg, lane, value, w.rf.CheckBitsOf(reg, lane))
		case in.Flags&isa.FlagPredicted != 0:
			// The prediction unit forms check bits from the input residues,
			// independent of the (possibly faulted) main datapath.
			w.rf.WritePredicted(reg, lane, value, m.predictedCheck(w, in, reg, lane, trueValue))
		default:
			w.rf.WriteFull(reg, lane, value)
		}
		w.regs[reg*isa.WarpSize+lane] = value
		return
	}
	if in.Flags&isa.FlagShadow != 0 {
		return // masked write; no architectural data effect
	}
	w.regs[reg*isa.WarpSize+lane] = value
}

// predictedCheck forms the Swap-Predict check bits for one written
// register. For residue organizations and the fixed-point operations the
// paper designed real predictors for (Figure 9), the check bits come from
// the SOURCES' stored residues through the prediction algebra — so a
// pending error on an input register propagates into the predicted check
// bits and stays detectable through arithmetic chains. Everything else
// (logic/shift/floating point — the paper's projected future predictors,
// plus the non-residue organizations) uses the idealized oracle.
func (m *machine) predictedCheck(w *warpState, in *isa.Instr, reg, lane int, trueValue uint32) uint32 {
	r, ok := w.rf.ResidueCode()
	if !ok {
		return w.rf.PredictCheck(trueValue)
	}
	res := func(src isa.Reg) uint32 {
		if src == isa.RZ {
			return 0
		}
		return r.Canon(w.rf.CheckBitsOf(int(src), lane))
	}
	op1 := func() (val uint32, residue uint32) {
		if in.HasImm {
			return uint32(in.Imm), r.Encode(uint32(in.Imm))
		}
		return w.readR(in.Src[1], lane), res(in.Src[1])
	}
	a := w.readR(in.Src[0], lane)
	ra := res(in.Src[0])
	switch in.Op {
	case isa.IADD:
		b, rb := op1()
		cout := (uint64(a)+uint64(b))>>32 != 0
		return r.PredictAdd(ra, rb, false, cout)
	case isa.ISUB:
		b, rb := op1()
		// Datapath computes a + ^b + 1; |^b|_A derives from |b|_A by
		// subtracting from |2^32 - 1|_A (wiring + one EAC add).
		allOnes := r.Sub(r.PowerOfTwoResidue(32), 1)
		rInvB := r.Sub(allOnes, rb)
		cout := (uint64(a)+uint64(^b)+1)>>32 != 0
		return r.PredictSub(ra, rInvB, cout)
	case isa.IMUL:
		b, rb := op1()
		z := uint64(a) * uint64(b)
		rz := r.Mul(ra, rb)
		lo, _ := recodePair(r, rz, z)
		return lo
	case isa.IMAD:
		b, rb := op1()
		if in.Wide {
			c := w.read64(in.Src[2], lane)
			z, cout := madWide(a, b, c)
			lo, hi := r.PredictMAD64(ra, rb, res(in.Src[2]+1), res(in.Src[2]), z, cout)
			if isa.Reg(reg) == in.Dst {
				return r.Canon(lo)
			}
			return r.Canon(hi)
		}
		c := w.readR(in.Src[2], lane)
		z := uint64(a)*uint64(b) + uint64(c)
		rz := r.Add(r.Mul(ra, rb), res(in.Src[2]))
		lo, _ := recodePair(r, rz, z)
		return lo
	}
	// Projected predictors (logic/shift/FP) and moves with immediates.
	return w.rf.PredictCheck(trueValue)
}

// recodePair splits a full-width predicted residue into the written 32-bit
// registers via the Figure 9b recoding encoder.
func recodePair(r ecc.Residue, rz uint32, z uint64) (lo, hi uint32) {
	return r.Canon(r.RecodeLow(rz, uint32(z>>32))), r.Canon(r.RecodeHigh(rz, uint32(z)))
}

// madWide recomputes the wide MAD with its carry-out (the Table III input).
func madWide(a, b uint32, c uint64) (uint64, bool) {
	hi64, lo64 := mulHiLo(uint64(a), uint64(b))
	z := lo64 + c
	carry := uint64(0)
	if z < lo64 {
		carry = 1
	}
	return z, hi64+carry != 0
}

func mulHiLo(x, y uint64) (hi, lo uint64) {
	return bits.Mul64(x, y)
}

func (m *machine) execSetp(w *warpState, in *isa.Instr, mask uint32) {
	var bits uint32
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		a := w.readR(in.Src[0], lane)
		var b uint32
		if in.HasImm {
			b = uint32(in.Imm)
		} else {
			b = w.readR(in.Src[1], lane)
		}
		var t bool
		if in.Op == isa.ISETP {
			x, y := int32(a), int32(b)
			switch in.Mod {
			case isa.CmpEQ:
				t = x == y
			case isa.CmpNE:
				t = x != y
			case isa.CmpLT:
				t = x < y
			case isa.CmpLE:
				t = x <= y
			case isa.CmpGT:
				t = x > y
			case isa.CmpGE:
				t = x >= y
			}
		} else {
			x, y := f32FromBits(a), f32FromBits(b)
			switch in.Mod {
			case isa.CmpEQ:
				t = x == y
			case isa.CmpNE:
				t = x != y
			case isa.CmpLT:
				t = x < y
			case isa.CmpLE:
				t = x <= y
			case isa.CmpGT:
				t = x > y
			case isa.CmpGE:
				t = x >= y
			}
		}
		if t {
			bits |= 1 << uint(lane)
		}
	}
	if in.DstPred >= 0 && in.DstPred < isa.PT {
		w.preds[in.DstPred] = (w.preds[in.DstPred] &^ mask) | bits
	}
}

// execStore defers both store flavors to the partition's write logs,
// visible to this partition's own loads through the overlays and committed
// at the barrier in partition order. STG targets global memory; STS targets
// the warp's CTA's shared memory, which other partitions can also host
// warps of.
func (p *partition) execStore(w *warpState, in *isa.Instr, mask uint32) error {
	m := p.m
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		addr := int(int32(w.readR(in.Src[0], lane))) + int(in.Imm)
		val := w.readR(in.Src[1], lane)
		if in.Op == isa.STG {
			if addr < 0 || addr >= len(m.g.Mem) {
				return m.oobError(isa.STG, addr, lane)
			}
			p.wlog = append(p.wlog, memEvent{addr: int32(addr), val: val})
		} else {
			if addr < 0 || addr >= len(w.cta.shared) {
				return m.oobError(isa.STS, addr, lane)
			}
			p.slog = append(p.slog, smemEvent{cta: w.cta, addr: int32(addr), val: val})
		}
	}
	return nil
}

func (m *machine) execBranch(w *warpState, in *isa.Instr) error {
	top := w.top()
	curPC := top.pc
	var takenMask uint32
	if in.Unconditional() {
		takenMask = top.mask
	} else {
		bits := w.preds[in.GuardPred]
		if in.GuardNeg {
			bits = ^bits
		}
		takenMask = top.mask & bits
	}
	switch {
	case takenMask == top.mask:
		top.pc = in.Imm
	case takenMask == 0:
		top.pc = curPC + 1
	default:
		fall := top.mask &^ takenMask
		reconv := in.Reconv
		top.pc = reconv // continuation with the full mask
		w.stack = append(w.stack,
			simtEntry{pc: curPC + 1, mask: fall, reconv: reconv},
			simtEntry{pc: in.Imm, mask: takenMask, reconv: reconv})
		if len(w.stack) > 64 {
			return fmt.Errorf("sm: kernel %s: SIMT stack overflow (malformed reconvergence?)", m.k.Name)
		}
	}
	w.popReconverged()
	return nil
}

func (w *warpState) advancePC() {
	w.top().pc++
	w.popReconverged()
}

func (w *warpState) popReconverged() {
	for len(w.stack) > 1 {
		t := w.top()
		if t.reconv >= 0 && t.pc == t.reconv {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		break
	}
}

// execExit removes lanes from the warp; when all are gone the warp retires.
// The CTA-level effects (liveWarps, releasing a barrier the exiting warp
// would have blocked) are logged and applied at the merge, because the CTA
// may span partitions.
func (p *partition) execExit(w *warpState, mask uint32) {
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
	for len(w.stack) > 0 && w.top().mask == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	if len(w.stack) == 0 {
		w.done = true
		p.retired++
		p.events = append(p.events, ctaEvent{cta: w.cta})
		return
	}
	w.advancePC()
	// advancePC moved past EXIT for the remaining (guarded-off) lanes; the
	// pop check above may already have resolved reconvergence.
}

// eccCheckSources runs the register-file decoder over every register source
// of the instruction's active lanes, tallying SwapCodes detections.
func (m *machine) eccCheckSources(w *warpState, in *isa.Instr, mask uint32) error {
	check := func(r isa.Reg) error {
		if r == isa.RZ {
			return nil
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			v, out := w.rf.Read(int(r), lane)
			switch out {
			case core.ReadOK:
			case core.ReadCorrectedStorage:
				m.stats.StorageCorrections++
				w.regs[int(r)*isa.WarpSize+lane] = v
			case core.ReadDUEPipeline:
				m.stats.PipelineDUEs++
				if fr := m.parts[w.sched].fr; fr != nil {
					fr.Add(simprof.Decision{Cycle: m.cycle, Warp: int32(w.gid), PC: w.top().pc,
						Kind: simprof.KindDue, Aux: int64(r)<<8 | int64(lane)})
				}
				if m.cfg.HaltOnDUE {
					return &DUEError{Kernel: m.k.Name, Reg: r, Lane: lane}
				}
			default:
				m.stats.StorageDUEs++
			}
		}
		return nil
	}
	for si, s := range in.Src {
		if si == 1 && in.HasImm {
			continue
		}
		wide := false
		switch in.Op {
		case isa.DADD, isa.DSUB, isa.DMUL:
			wide = si < 2
		case isa.DFMA:
			wide = true
		case isa.IMAD:
			wide = in.Wide && si == 2
		}
		if err := check(s); err != nil {
			return err
		}
		if wide {
			if err := check(s + 1); err != nil {
				return err
			}
		}
	}
	return nil
}
