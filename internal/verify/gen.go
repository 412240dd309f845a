// Package verify is the repo's differential-verification and invariant-lint
// subsystem. The paper's argument rests on two machine-checkable claims:
// every protection pass is semantics-preserving (Swap-ECC's shadows change
// only check bits, Figure 4), and the timing model's cycle accounting obeys
// its conservation laws. This package proves both on every workload kernel
// and on randomly generated adversarial kernels, across the full
// scheme x optimization-option matrix, and lints the emitted code for the
// structural contracts the passes must uphold (shadow pairing, shadow-space
// disjointness, reserved predicates, control-flow sanity). CI runs
// `go test ./internal/verify` plus a FuzzPassEquivalence budget on every PR.
package verify

import (
	"math"
	"math/rand"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
)

// Generated-kernel register map: r0..r3 system (tid, ctaid, ntid, idx),
// r4..r11 scalars, r12/r14 wide pairs, r17..r19 loop counters.
const (
	genTid = isa.Reg(0)
	genCta = isa.Reg(1)
	genNT  = isa.Reg(2)
	genIdx = isa.Reg(3)
)

type kgen struct {
	rng  *rand.Rand
	a    *compiler.Asm
	n    int // total threads
	lbl  int
	loop int
}

func (g *kgen) scalar() isa.Reg { return isa.Reg(4 + g.rng.Intn(8)) }

func (g *kgen) pair() isa.Reg { return isa.Reg(12 + 2*g.rng.Intn(2)) }

func (g *kgen) label() string {
	g.lbl++
	return "V" + string(rune('a'+g.lbl%26)) + string(rune('a'+(g.lbl/26)%26)) + string(rune('a'+(g.lbl/676)%26))
}

// arith emits one random duplication-eligible instruction, occasionally
// predicated — predicated writes are the partial-kill case the DCE and the
// passes must both model.
func (g *kgen) arith() {
	d, x, y, z := g.scalar(), g.scalar(), g.scalar(), g.scalar()
	switch g.rng.Intn(14) {
	case 0:
		g.a.IAdd(d, x, y)
	case 1:
		g.a.ISub(d, x, y)
	case 2:
		g.a.IMul(d, x, y)
	case 3:
		g.a.IMad(d, x, y, z)
	case 4:
		g.a.And(d, x, y)
	case 5:
		g.a.Xor(d, x, y)
	case 6:
		g.a.ShrI(d, x, int32(g.rng.Intn(8)))
	case 7:
		g.a.FAdd(d, x, y)
	case 8:
		g.a.FSub(d, x, y)
	case 9:
		g.a.FMul(d, x, y)
	case 10:
		g.a.FFma(d, x, y, z)
	case 11:
		g.a.Mov(d, x) // move propagation's target case
	case 12:
		p, q := g.pair(), g.pair()
		switch g.rng.Intn(3) {
		case 0:
			g.a.DAdd(p, p, q)
		case 1:
			g.a.DMul(p, q, q)
		default:
			g.a.IMadWide(p, x, y, q)
		}
	default:
		g.a.Mufu(isa.FnSQRT, d, x) // NaN for negative inputs, still deterministic
	}
	if g.rng.Intn(4) == 0 {
		g.a.Guard(int8(g.rng.Intn(3)), g.rng.Intn(2) == 0)
	}
}

// block emits a sequence of items; uniform marks blocks all threads execute
// together (where barriers are legal). Loops are counted, divergence is
// structured, so every generated kernel terminates.
func (g *kgen) block(depth int, uniform bool) {
	items := 3 + g.rng.Intn(6)
	for i := 0; i < items; i++ {
		switch g.rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			g.arith()
		case 5:
			// Store to this thread's slot of one of the output regions.
			slot := int32(g.rng.Intn(4))
			g.a.Stg(genIdx, slot*int32(g.n), g.scalar())
		case 6:
			// Load adversarial input data.
			g.a.Ldg(g.scalar(), genIdx, int32(4+g.rng.Intn(4))*int32(g.n))
		case 7:
			if uniform {
				g.a.Sts(genTid, 0, g.scalar())
				g.a.Bar()
				g.a.Lds(g.scalar(), genTid, 0)
				g.a.Bar()
			} else {
				g.arith()
			}
		case 8:
			if depth > 0 {
				// Divergent if-block guarded by a data-dependent predicate:
				// with adversarial inputs (all-zero, all-ones) the guard can
				// degenerate to all-taken or none-taken — both must hold.
				p := int8(g.rng.Intn(3))
				g.a.ISetpI(isa.CmpLT, p, g.scalar(), int32(g.rng.Intn(1000)))
				end := g.label()
				g.a.BraP(p, g.rng.Intn(2) == 0, end, end)
				g.block(depth-1, false)
				g.a.Label(end)
			} else {
				g.arith()
			}
		default:
			if depth > 0 && g.loop < 3 {
				g.loop++
				trips := int32(2 + g.rng.Intn(3))
				ctr := isa.Reg(17 + g.loop)
				g.a.MovI(ctr, 0)
				head := g.label()
				after := g.label()
				g.a.Label(head)
				g.block(depth-1, uniform)
				g.a.IAddI(ctr, ctr, 1)
				g.a.ISetpI(isa.CmpLT, 3, ctr, trips)
				g.a.BraP(3, false, head, after)
				g.a.Label(after)
				g.loop--
			} else {
				g.arith()
			}
		}
	}
}

// GenKernel deterministically generates a structured kernel exercising
// every instruction class, predication, divergence, uniform loops,
// barriers, and shared/global memory. It returns the kernel and the global
// memory size it addresses: outputs live in [0, 4n), inputs in [4n, 8n)
// where n = grid*cta threads. Same seed, same kernel.
func GenKernel(seed int64, grid, cta int) (*isa.Kernel, int) {
	g := &kgen{rng: rand.New(rand.NewSource(seed)), a: compiler.NewAsm("gen"), n: grid * cta}
	a := g.a
	a.S2R(genTid, isa.SRTid)
	a.S2R(genCta, isa.SRCtaid)
	a.S2R(genNT, isa.SRNTid)
	a.IMad(genIdx, genCta, genNT, genTid)
	// Seed every scalar with thread-dependent values so predicates diverge.
	for r := isa.Reg(4); r < 12; r++ {
		if g.rng.Intn(2) == 0 {
			a.IAddI(r, genIdx, int32(g.rng.Intn(100)))
		} else {
			a.I2F(r, genIdx)
			a.FMulI(r, r, float32(g.rng.Intn(7))*0.25+0.25)
		}
	}
	for _, p := range []isa.Reg{12, 14} {
		a.I2F(p, genIdx)
		bits := math.Float64bits(1.5)
		a.MovI(p+1, int32(uint32(bits>>32)))
	}
	g.block(3, true)
	// Guarantee observable output on every path.
	a.Stg(genIdx, 0, g.scalar())
	a.Exit()
	k, err := a.Build(grid, cta, cta)
	if err != nil {
		panic(err) // generator bug, not an input condition
	}
	return k, 8 * g.n
}

// Pattern fills a generated kernel's input region ([memWords/2, memWords))
// with one class of adversarial operands.
type Pattern struct {
	Name string
	Fill func(mem []uint32, seed int64)
}

// Patterns returns the adversarial input classes: all-zero and all-ones
// operands, signed-boundary values (the overflow edge for the fixed-point
// predictors), NaN/denormal floats (the non-propagating edge for the FP
// predictors), and seeded random floats. Divergent predicates come from the
// kernels themselves — guards compare thread-dependent register values.
func Patterns() []Pattern {
	fill := func(f func(i int, seed int64) uint32) func([]uint32, int64) {
		return func(mem []uint32, seed int64) {
			for i := len(mem) / 2; i < len(mem); i++ {
				mem[i] = f(i, seed)
			}
		}
	}
	return []Pattern{
		{"zeros", fill(func(int, int64) uint32 { return 0 })},
		{"ones", fill(func(int, int64) uint32 { return ^uint32(0) })},
		{"signbound", fill(func(i int, _ int64) uint32 {
			if i%2 == 0 {
				return 0x7FFFFFFF
			}
			return 0x80000000
		})},
		{"nan-denormal", fill(func(i int, _ int64) uint32 {
			if i%2 == 0 {
				return 0x7FC00000 // quiet NaN
			}
			return 0x00000001 // smallest denormal
		})},
		{"random", func(mem []uint32, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := len(mem) / 2; i < len(mem); i++ {
				mem[i] = math.Float32bits(float32(rng.Intn(64)) * 0.5)
			}
		}},
	}
}

// GenFill adapts a Pattern to the device-level fill used by Subject.
func GenFill(p Pattern, seed int64) func(g *sm.GPU) {
	return func(g *sm.GPU) { p.Fill(g.Mem, seed) }
}

// SchedConfig is one named SM configuration of the scheduler differentials.
type SchedConfig struct {
	Name string
	Cfg  sm.Config
}

// SchedConfigs returns the non-default configurations the reference-versus-
// default scheduler differentials run beside DefaultConfig, which holds at
// most 16 warps per partition, dual issue, dyadic rates and flat latencies
// of at most 140 cycles. Each reaches scheduler state the default does not.
func SchedConfigs() []SchedConfig {
	with := func(name string, tweak func(*sm.Config)) SchedConfig {
		c := sm.DefaultConfig()
		tweak(&c)
		return SchedConfig{name, c}
	}
	return []SchedConfig{
		// Up to 64 resident warps in one partition: every bit of a set.
		with("schedulers-1", func(c *sm.Config) { c.Schedulers = 1 }),
		// Per-partition rates and token caps that are not dyadic.
		with("schedulers-3", func(c *sm.Config) { c.Schedulers = 3 }),
		with("schedulers-2-issue-4", func(c *sm.Config) { c.Schedulers, c.IssuePerSched = 2, 4 }),
		with("issue-1", func(c *sm.Config) { c.IssuePerSched = 1 }),
		// Dependence wakes past the 256-cycle wake wheel.
		with("slow-memory", func(c *sm.Config) { c.LatGMem, c.LatSMem = 600, 300 }),
		with("odd-rates", func(c *sm.Config) {
			c.ThrSFU, c.ThrFP64, c.ThrGMem, c.ThrFxP = 0.3, 0.7, 0.45, 1.7
		}),
		with("sectored-schedulers-3", func(c *sm.Config) { c.MemModel, c.Schedulers = "sectored", 3 }),
		with("bypass-3", func(c *sm.Config) { c.BypassSaving = 3 }),
	}
}
