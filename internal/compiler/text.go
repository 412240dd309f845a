package compiler

// Textual kernel format: a human-writable assembly syntax that round-trips
// through Format/Parse. It lets downstream users keep kernels as .sasm text
// instead of Go DSL calls:
//
//	.kernel saxpy grid=2 cta=128 shared=0
//	    s2r    r0, tid
//	    s2r    r1, ctaid
//	    s2r    r2, ntid
//	    imad   r3, r1, r2, r0
//	    mov    r6, #1075838976      ; float bits; "#2.5f" also accepted
//	    ldg    r4, [r3+0]
//	    ffma   r4, r6, r4, r4
//	    isetp.lt p0, r0, #16
//	@p0 bra    Skip, Skip
//	    stg    [r3+256], r4
//	Skip:
//	    exit
//
// Guards are written `@pN`/`@!pN`; immediates `#<int>`, `#0x<hex>`, or
// `#<float>f`; memory operands `[rN+off]`; conditional branches name their
// target and reconvergence labels. Shadow/predicted metadata (emitted by
// the protection passes) round-trips via the `.shdw`/`.pred` suffixes;
// Figure 13 categories are profiling metadata and are not serialized.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"swapcodes/internal/isa"
)

var cmpNames = map[isa.Modifier]string{
	isa.CmpEQ: "eq", isa.CmpNE: "ne", isa.CmpLT: "lt",
	isa.CmpLE: "le", isa.CmpGT: "gt", isa.CmpGE: "ge",
}

var mufuNames = map[isa.Modifier]string{
	isa.FnRCP: "rcp", isa.FnSQRT: "sqrt", isa.FnEX2: "ex2", isa.FnLG2: "lg2",
}

var atomNames = map[isa.Modifier]string{
	isa.OpAdd: "add", isa.OpMin: "min", isa.OpMax: "max",
	isa.OpExch: "exch", isa.OpCAS: "cas",
}

var srNames = map[isa.SpecialReg]string{
	isa.SRTid: "tid", isa.SRCtaid: "ctaid", isa.SRNTid: "ntid",
	isa.SRNCta: "ncta", isa.SRLane: "lane", isa.SRWarp: "warp",
}

func invert[K comparable, V comparable](m map[K]V) map[V]K {
	out := make(map[V]K, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

var (
	cmpByName  = invert(cmpNames)
	mufuByName = invert(mufuNames)
	atomByName = invert(atomNames)
	srByName   = invert(srNames)
)

// Format renders a kernel in the textual assembly syntax; the result parses
// back to a structurally identical kernel (modulo profiling categories).
func Format(k *isa.Kernel) string {
	labels := map[int32]string{}
	need := func(pc int32) string {
		if _, ok := labels[pc]; !ok {
			labels[pc] = fmt.Sprintf("L%d", pc)
		}
		return labels[pc]
	}
	for _, in := range k.Code {
		if in.Op == isa.BRA {
			need(in.Imm)
			if !in.Unconditional() {
				need(in.Reconv)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s grid=%d cta=%d shared=%d\n",
		k.Name, k.GridCTAs, k.CTAThreads, k.SharedWords)
	for pc := range k.Code {
		if l, ok := labels[int32(pc)]; ok {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		b.WriteString("    ")
		b.WriteString(formatInstr(&k.Code[pc], labels))
		b.WriteString("\n")
	}
	if l, ok := labels[int32(len(k.Code))]; ok {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	return b.String()
}

func regName(r isa.Reg) string {
	if r == isa.RZ {
		return "rz"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

func formatInstr(in *isa.Instr, labels map[int32]string) string {
	var b strings.Builder
	if !in.Unconditional() {
		neg := ""
		if in.GuardNeg {
			neg = "!"
		}
		fmt.Fprintf(&b, "@%sp%d ", neg, in.GuardPred)
	}
	mnem := strings.ToLower(in.Op.String())
	switch in.Op {
	case isa.ISETP, isa.FSETP:
		mnem += "." + cmpNames[in.Mod]
	case isa.MUFU:
		mnem += "." + mufuNames[in.Mod]
	case isa.ATOM:
		mnem += "." + atomNames[in.Mod]
	case isa.IMAD:
		if in.Wide {
			mnem += ".wide"
		}
	}
	if in.Flags&isa.FlagShadow != 0 {
		mnem += ".shdw"
	}
	if in.Flags&isa.FlagPredicted != 0 {
		mnem += ".pred"
	}
	b.WriteString(mnem)

	imm := func() string { return fmt.Sprintf("#%d", in.Imm) }
	op1 := func() string {
		if in.HasImm {
			return imm()
		}
		return regName(in.Src[1])
	}
	switch in.Op {
	case isa.NOP, isa.EXIT, isa.BPT, isa.BAR:
	case isa.BRA:
		fmt.Fprintf(&b, " %s", labels[in.Imm])
		if !in.Unconditional() {
			fmt.Fprintf(&b, ", %s", labels[in.Reconv])
		}
	case isa.S2R:
		fmt.Fprintf(&b, " %s, %s", regName(in.Dst), srNames[isa.SpecialReg(in.Imm)])
	case isa.SHFL:
		fmt.Fprintf(&b, " %s, %s, #%d", regName(in.Dst), regName(in.Src[0]), in.Imm)
	case isa.ISETP, isa.FSETP:
		fmt.Fprintf(&b, " p%d, %s, %s", in.DstPred, regName(in.Src[0]), op1())
	case isa.LDG, isa.LDS:
		fmt.Fprintf(&b, " %s, [%s%+d]", regName(in.Dst), regName(in.Src[0]), in.Imm)
	case isa.STG, isa.STS:
		fmt.Fprintf(&b, " [%s%+d], %s", regName(in.Src[0]), in.Imm, regName(in.Src[1]))
	case isa.ATOM:
		fmt.Fprintf(&b, " %s, [%s%+d], %s", regName(in.Dst), regName(in.Src[0]), in.Imm, regName(in.Src[1]))
		if in.Mod == isa.OpCAS {
			fmt.Fprintf(&b, ", %s", regName(in.Src[2]))
		}
	case isa.MOV:
		if in.HasImm {
			fmt.Fprintf(&b, " %s, %s", regName(in.Dst), imm())
		} else {
			fmt.Fprintf(&b, " %s, %s", regName(in.Dst), regName(in.Src[0]))
		}
	case isa.MUFU, isa.I2F, isa.F2I:
		fmt.Fprintf(&b, " %s, %s", regName(in.Dst), regName(in.Src[0]))
	case isa.IMAD, isa.FFMA, isa.DFMA:
		fmt.Fprintf(&b, " %s, %s, %s, %s", regName(in.Dst), regName(in.Src[0]), op1(), regName(in.Src[2]))
	default: // two-operand ALU
		fmt.Fprintf(&b, " %s, %s, %s", regName(in.Dst), regName(in.Src[0]), op1())
	}
	return b.String()
}

// Parse reads the textual syntax and builds a validated kernel.
func Parse(text string) (*isa.Kernel, error) {
	var (
		a                  *Asm
		grid, cta, shared  int
		sawHeader, sawCode bool
	)
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("parse: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, ".kernel") {
			if sawHeader {
				return nil, fail("duplicate .kernel directive")
			}
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fail("missing kernel name")
			}
			a = NewAsm(fields[1])
			grid, cta, shared = 1, 32, 0
			for _, f := range fields[2:] {
				kv := strings.SplitN(f, "=", 2)
				if len(kv) != 2 {
					return nil, fail("bad directive field %q", f)
				}
				n, err := strconv.Atoi(kv[1])
				if err != nil {
					return nil, fail("bad number in %q", f)
				}
				switch kv[0] {
				case "grid":
					grid = n
				case "cta":
					cta = n
				case "shared":
					shared = n
				default:
					return nil, fail("unknown directive field %q", kv[0])
				}
			}
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, fail("code before .kernel directive")
		}
		if strings.HasSuffix(line, ":") {
			a.Label(strings.TrimSuffix(line, ":"))
			continue
		}
		if err := parseInstr(a, line); err != nil {
			return nil, fail("%v", err)
		}
		sawCode = true
	}
	if !sawHeader || !sawCode {
		return nil, fmt.Errorf("parse: empty kernel")
	}
	return a.Build(grid, cta, shared)
}

// MustParse is Parse for statically known-good sources.
func MustParse(text string) *isa.Kernel {
	k, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return k
}

func parseReg(tok string) (isa.Reg, error) {
	tok = strings.ToLower(tok)
	if tok == "rz" {
		return isa.RZ, nil
	}
	if !strings.HasPrefix(tok, "r") {
		return 0, fmt.Errorf("expected register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n > 254 {
		return 0, fmt.Errorf("bad register %q", tok)
	}
	return isa.Reg(n), nil
}

func parseImm(tok string) (int32, error) {
	if !strings.HasPrefix(tok, "#") {
		return 0, fmt.Errorf("expected immediate, got %q", tok)
	}
	body := tok[1:]
	if strings.HasSuffix(body, "f") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(body, "f"), 32)
		if err != nil {
			return 0, fmt.Errorf("bad float immediate %q", tok)
		}
		return int32(math.Float32bits(float32(f))), nil
	}
	n, err := strconv.ParseInt(body, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", tok)
	}
	return int32(n), nil
}

// parseMem parses "[rN+off]" / "[rN-off]".
func parseMem(tok string) (isa.Reg, int32, error) {
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, fmt.Errorf("expected memory operand, got %q", tok)
	}
	body := tok[1 : len(tok)-1]
	split := strings.LastIndexAny(body, "+-")
	if split <= 0 {
		return 0, 0, fmt.Errorf("memory operand %q needs reg+offset", tok)
	}
	r, err := parseReg(body[:split])
	if err != nil {
		return 0, 0, err
	}
	off, err := strconv.ParseInt(body[split:], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset in %q", tok)
	}
	return r, int32(off), nil
}

func parsePred(tok string) (int8, error) {
	tok = strings.ToLower(tok)
	if !strings.HasPrefix(tok, "p") {
		return 0, fmt.Errorf("expected predicate, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n > 6 {
		return 0, fmt.Errorf("bad predicate %q", tok)
	}
	return int8(n), nil
}

func parseInstr(a *Asm, line string) error {
	guard := int8(isa.NoPred)
	guardNeg := false
	if strings.HasPrefix(line, "@") {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return fmt.Errorf("guard without instruction")
		}
		g := line[1:sp]
		if strings.HasPrefix(g, "!") {
			guardNeg = true
			g = g[1:]
		}
		p, err := parsePred(g)
		if err != nil {
			return err
		}
		guard = p
		line = strings.TrimSpace(line[sp:])
	}
	sp := strings.IndexAny(line, " \t")
	mnem := line
	rest := ""
	if sp >= 0 {
		mnem = line[:sp]
		rest = strings.TrimSpace(line[sp:])
	}
	parts := strings.Split(strings.ToLower(mnem), ".")
	opName := strings.ToUpper(parts[0])
	var mods []string
	wide := false
	var flags isa.Flags
	for _, m := range parts[1:] {
		switch m {
		case "wide":
			wide = true
		case "shdw":
			flags |= isa.FlagShadow
		case "pred":
			flags |= isa.FlagPredicted
		default:
			mods = append(mods, m)
		}
	}
	var ops []string
	if rest != "" {
		for _, o := range strings.Split(rest, ",") {
			ops = append(ops, strings.TrimSpace(o))
		}
	}
	op, ok := opByName(opName)
	if !ok {
		return fmt.Errorf("unknown opcode %q", opName)
	}
	if wide && op != isa.IMAD {
		return fmt.Errorf("%v has no .wide form", op)
	}
	if err := emitParsed(a, op, mods, wide, ops); err != nil {
		return err
	}
	// Apply guard and metadata to the just-emitted instruction (branches
	// record their guard through BraP directly).
	last := a.lastInstr()
	if last == nil {
		return fmt.Errorf("internal: nothing emitted")
	}
	if guard != isa.NoPred && op != isa.BRA {
		last.GuardPred = guard
		last.GuardNeg = guardNeg
	}
	if op == isa.BRA && guard != isa.NoPred {
		last.GuardPred = guard
		last.GuardNeg = guardNeg
	}
	last.Flags |= flags
	return nil
}

// lastInstr exposes the most recently emitted instruction for the parser.
func (a *Asm) lastInstr() *isa.Instr {
	if len(a.code) == 0 {
		return nil
	}
	return &a.code[len(a.code)-1]
}

var opNameTable = map[string]isa.Opcode{
	"NOP": isa.NOP, "IADD": isa.IADD, "ISUB": isa.ISUB, "IMUL": isa.IMUL,
	"IMAD": isa.IMAD, "AND": isa.AND, "OR": isa.OR, "XOR": isa.XOR,
	"SHL": isa.SHL, "SHR": isa.SHR, "ISETP": isa.ISETP, "FADD": isa.FADD,
	"FSUB": isa.FSUB, "FMUL": isa.FMUL, "FFMA": isa.FFMA, "FSETP": isa.FSETP,
	"DADD": isa.DADD, "DSUB": isa.DSUB, "DMUL": isa.DMUL, "DFMA": isa.DFMA,
	"MUFU": isa.MUFU, "I2F": isa.I2F, "F2I": isa.F2I, "MOV": isa.MOV,
	"S2R": isa.S2R, "SHFL": isa.SHFL, "LDG": isa.LDG, "STG": isa.STG,
	"LDS": isa.LDS, "STS": isa.STS, "ATOM": isa.ATOM, "BRA": isa.BRA,
	"EXIT": isa.EXIT, "BPT": isa.BPT, "BAR": isa.BAR,
}

func opByName(name string) (isa.Opcode, bool) {
	op, ok := opNameTable[name]
	return op, ok
}

func emitParsed(a *Asm, op isa.Opcode, mods []string, wide bool, ops []string) error {
	mod := func(table map[string]isa.Modifier) (isa.Modifier, error) {
		if len(mods) != 1 {
			return 0, fmt.Errorf("%v requires exactly one modifier", op)
		}
		m, ok := table[mods[0]]
		if !ok {
			return 0, fmt.Errorf("unknown modifier %q", mods[0])
		}
		return m, nil
	}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%v expects %d operands, got %d", op, n, len(ops))
		}
		return nil
	}
	switch op {
	case isa.NOP:
		a.Nop()
	case isa.EXIT:
		a.Exit()
	case isa.BPT:
		a.Bpt()
	case isa.BAR:
		a.Bar()
	case isa.BRA:
		switch len(ops) {
		case 1:
			a.Bra(ops[0])
		case 2:
			// Guard is applied by the caller after emission; register the
			// fixups with a placeholder predicate (overwritten).
			a.BraP(0, false, ops[0], ops[1])
		default:
			return fmt.Errorf("bra expects 1 or 2 labels")
		}
	case isa.S2R:
		if err := need(2); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		sr, ok := srByName[strings.ToLower(ops[1])]
		if !ok {
			return fmt.Errorf("unknown special register %q", ops[1])
		}
		a.S2R(d, sr)
	case isa.SHFL:
		if err := need(3); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		s, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		imm, err := parseImm(ops[2])
		if err != nil {
			return err
		}
		a.Shfl(d, s, imm)
	case isa.ISETP, isa.FSETP:
		m, err := mod(cmpByName)
		if err != nil {
			return err
		}
		if err := need(3); err != nil {
			return err
		}
		p, err := parsePred(ops[0])
		if err != nil {
			return err
		}
		x, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		if strings.HasPrefix(ops[2], "#") {
			imm, err := parseImm(ops[2])
			if err != nil {
				return err
			}
			if op == isa.ISETP {
				a.ISetpI(m, p, x, imm)
			} else {
				a.emit(isa.Instr{Op: op, Mod: m, DstPred: p, Src: src2(x, isa.RZ), Imm: imm, HasImm: true})
			}
		} else {
			y, err := parseReg(ops[2])
			if err != nil {
				return err
			}
			if op == isa.ISETP {
				a.ISetp(m, p, x, y)
			} else {
				a.FSetp(m, p, x, y)
			}
		}
	case isa.LDG, isa.LDS:
		if err := need(2); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		addr, off, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		if op == isa.LDG {
			a.Ldg(d, addr, off)
		} else {
			a.Lds(d, addr, off)
		}
	case isa.STG, isa.STS:
		if err := need(2); err != nil {
			return err
		}
		addr, off, err := parseMem(ops[0])
		if err != nil {
			return err
		}
		v, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		if op == isa.STG {
			a.Stg(addr, off, v)
		} else {
			a.Sts(addr, off, v)
		}
	case isa.ATOM:
		m, err := mod(atomByName)
		if err != nil {
			return err
		}
		want := 3
		if m == isa.OpCAS {
			want = 4
		}
		if len(ops) != want {
			return fmt.Errorf("atom expects dst, [mem], val (+cmp for cas)")
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		addr, off, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		v, err := parseReg(ops[2])
		if err != nil {
			return err
		}
		if m == isa.OpCAS {
			cmp, err := parseReg(ops[3])
			if err != nil {
				return err
			}
			a.AtomCAS(d, addr, v, cmp, off)
		} else {
			a.Atom(m, d, addr, v, off)
		}
	case isa.MUFU:
		m, err := mod(mufuByName)
		if err != nil {
			return err
		}
		if err := need(2); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		s, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		a.Mufu(m, d, s)
	case isa.I2F, isa.F2I:
		if err := need(2); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		s, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		if op == isa.I2F {
			a.I2F(d, s)
		} else {
			a.F2I(d, s)
		}
	case isa.MOV:
		if err := need(2); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		if strings.HasPrefix(ops[1], "#") {
			imm, err := parseImm(ops[1])
			if err != nil {
				return err
			}
			a.MovI(d, imm)
		} else {
			s, err := parseReg(ops[1])
			if err != nil {
				return err
			}
			a.Mov(d, s)
		}
	case isa.IMAD, isa.FFMA, isa.DFMA:
		if err := need(4); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		x, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		z, err := parseReg(ops[3])
		if err != nil {
			return err
		}
		if strings.HasPrefix(ops[2], "#") {
			imm, err := parseImm(ops[2])
			if err != nil {
				return err
			}
			a.emit(isa.Instr{Op: op, Dst: d, Src: src3(x, isa.RZ, z), Imm: imm, HasImm: true, Wide: wide})
		} else {
			y, err := parseReg(ops[2])
			if err != nil {
				return err
			}
			a.emit(isa.Instr{Op: op, Dst: d, Src: src3(x, y, z), Wide: wide})
		}
	default:
		// Two-operand ALU (incl. FP64 pair ops).
		if err := need(3); err != nil {
			return err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		x, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		if strings.HasPrefix(ops[2], "#") {
			imm, err := parseImm(ops[2])
			if err != nil {
				return err
			}
			a.emit(isa.Instr{Op: op, Dst: d, Src: src2(x, isa.RZ), Imm: imm, HasImm: true})
		} else {
			y, err := parseReg(ops[2])
			if err != nil {
				return err
			}
			a.emit(isa.Instr{Op: op, Dst: d, Src: src2(x, y)})
		}
	}
	return nil
}
