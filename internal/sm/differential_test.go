package sm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
)

// This file differential-tests the SIMT machine against an independent
// SCALAR interpreter: each thread executed sequentially, one at a time,
// with no warps, masks, reconvergence stacks, or schedulers. For race-free
// kernels (per-thread output slots, commutative atomics, no barriers or
// shuffles) the two execution models must produce identical memory, so any
// divergence-stack or masking bug in the machine shows up as a memory diff.

// scalarRun executes the kernel one thread at a time.
func scalarRun(t *testing.T, k *isa.Kernel, mem []uint32) {
	t.Helper()
	for cta := 0; cta < k.GridCTAs; cta++ {
		for tid := 0; tid < k.CTAThreads; tid++ {
			regs := make([]uint32, 256)
			var preds [8]bool
			pc := 0
			read := func(r isa.Reg) uint32 {
				if r == isa.RZ {
					return 0
				}
				return regs[r]
			}
			read64 := func(r isa.Reg) uint64 {
				return uint64(read(r)) | uint64(read(r+1))<<32
			}
			write := func(r isa.Reg, v uint32) {
				if r != isa.RZ {
					regs[r] = v
				}
			}
			for steps := 0; ; steps++ {
				if steps > 1<<20 {
					t.Fatal("scalar interpreter runaway")
				}
				in := &k.Code[pc]
				active := true
				if in.GuardPred >= 0 && in.GuardPred < isa.PT {
					active = preds[in.GuardPred] != in.GuardNeg
				}
				if in.Op == isa.EXIT && active {
					break
				}
				if in.Op == isa.BRA && active {
					pc = int(in.Imm)
					continue
				}
				if active {
					a := read(in.Src[0])
					b := uint32(in.Imm)
					if !in.HasImm {
						b = read(in.Src[1])
					}
					c := read(in.Src[2])
					switch in.Op {
					case isa.IADD:
						write(in.Dst, a+b)
					case isa.ISUB:
						write(in.Dst, a-b)
					case isa.IMUL:
						write(in.Dst, a*b)
					case isa.IMAD:
						if in.Wide {
							z := uint64(a)*uint64(b) + read64(in.Src[2])
							write(in.Dst, uint32(z))
							write(in.Dst+1, uint32(z>>32))
						} else {
							write(in.Dst, a*b+c)
						}
					case isa.AND:
						write(in.Dst, a&b)
					case isa.XOR:
						write(in.Dst, a^b)
					case isa.SHR:
						write(in.Dst, a>>(b&31))
					case isa.FADD:
						write(in.Dst, math.Float32bits(math.Float32frombits(a)+math.Float32frombits(b)))
					case isa.FSUB:
						write(in.Dst, math.Float32bits(math.Float32frombits(a)-math.Float32frombits(b)))
					case isa.FMUL:
						write(in.Dst, math.Float32bits(math.Float32frombits(a)*math.Float32frombits(b)))
					case isa.FFMA:
						write(in.Dst, math.Float32bits(float32(math.FMA(
							float64(math.Float32frombits(a)),
							float64(math.Float32frombits(b)),
							float64(math.Float32frombits(c))))))
					case isa.MUFU:
						x := float64(math.Float32frombits(a))
						write(in.Dst, math.Float32bits(float32(math.Sqrt(x))))
					case isa.I2F:
						write(in.Dst, math.Float32bits(float32(int32(a))))
					case isa.MOV:
						write(in.Dst, a|b)
					case isa.S2R:
						switch isa.SpecialReg(in.Imm) {
						case isa.SRTid:
							write(in.Dst, uint32(tid))
						case isa.SRCtaid:
							write(in.Dst, uint32(cta))
						case isa.SRNTid:
							write(in.Dst, uint32(k.CTAThreads))
						}
					case isa.ISETP, isa.FSETP:
						var tv bool
						if in.Op == isa.ISETP {
							x, y := int32(a), int32(b)
							switch in.Mod {
							case isa.CmpEQ:
								tv = x == y
							case isa.CmpNE:
								tv = x != y
							case isa.CmpLT:
								tv = x < y
							case isa.CmpLE:
								tv = x <= y
							case isa.CmpGT:
								tv = x > y
							case isa.CmpGE:
								tv = x >= y
							}
						} else {
							x, y := math.Float32frombits(a), math.Float32frombits(b)
							switch in.Mod {
							case isa.CmpLT:
								tv = x < y
							case isa.CmpGE:
								tv = x >= y
							}
						}
						if in.DstPred >= 0 && in.DstPred < isa.PT {
							preds[in.DstPred] = tv
						}
					case isa.LDG:
						write(in.Dst, mem[int(int32(a))+int(in.Imm)])
					case isa.STG:
						mem[int(int32(a))+int(in.Imm)] = read(in.Src[1])
					case isa.ATOM:
						addr := int(int32(a)) + int(in.Imm)
						old := mem[addr]
						if in.Mod == isa.OpAdd {
							mem[addr] = old + read(in.Src[1])
						}
						write(in.Dst, old)
					case isa.NOP:
					default:
						t.Fatalf("scalar interpreter: unsupported op %v", in.Op)
					}
				}
				pc++
			}
		}
	}
}

// diffGen emits race-free kernels: per-thread slots, divergent ifs and
// loops, atomics restricted to commutative adds, no barriers/shuffles.
func diffGen(seed int64, grid, cta int) *isa.Kernel {
	rng := rand.New(rand.NewSource(seed))
	n := grid * cta
	a := compiler.NewAsm("diff")
	a.S2R(0, isa.SRTid)
	a.S2R(1, isa.SRCtaid)
	a.S2R(2, isa.SRNTid)
	a.IMad(3, 1, 2, 0) // idx
	for r := isa.Reg(4); r < 12; r++ {
		if rng.Intn(2) == 0 {
			a.IAddI(r, 3, int32(rng.Intn(50)))
		} else {
			a.I2F(r, 3)
			a.FMulI(r, r, float32(rng.Intn(5))*0.5+0.5)
		}
	}
	sc := func() isa.Reg { return isa.Reg(4 + rng.Intn(8)) }
	lbl := 0
	newLbl := func() string {
		lbl++
		return "d" + string(rune('a'+lbl%26)) + string(rune('a'+(lbl/26)%26))
	}
	var emit func(depth int)
	emit = func(depth int) {
		for i, nitems := 0, 3+rng.Intn(5); i < nitems; i++ {
			switch rng.Intn(9) {
			case 0:
				a.IAdd(sc(), sc(), sc())
			case 1:
				a.FFma(sc(), sc(), sc(), sc())
			case 2:
				a.Mufu(isa.FnSQRT, sc(), sc())
			case 3:
				a.Ldg(sc(), 3, int32(2+rng.Intn(3))*int32(n))
			case 4:
				a.Stg(3, int32(rng.Intn(2))*int32(n), sc())
			case 5:
				a.Atom(isa.OpAdd, isa.RZ, isa.RZ, sc(), int32(5*n)) // shared counter
			case 6:
				if depth > 0 {
					p := int8(rng.Intn(3))
					a.ISetpI(isa.CmpLT, p, sc(), int32(rng.Intn(2000)))
					end := newLbl()
					a.BraP(p, rng.Intn(2) == 0, end, end)
					emit(depth - 1)
					a.Label(end)
				} else {
					a.Xor(sc(), sc(), sc())
				}
			case 7:
				if depth > 0 {
					ctr := isa.Reg(12 + depth)
					a.MovI(ctr, 0)
					head, after := newLbl(), newLbl()
					a.Label(head)
					emit(depth - 1)
					a.IAddI(ctr, ctr, 1)
					a.ISetpI(isa.CmpLT, 3, ctr, int32(2+rng.Intn(2)))
					a.BraP(3, false, head, after)
					a.Label(after)
				} else {
					a.IMul(sc(), sc(), sc())
				}
			default:
				a.FSub(sc(), sc(), sc())
			}
		}
	}
	emit(2)
	a.Stg(3, 0, sc())
	a.Exit()
	return a.MustBuild(grid, cta, 0)
}

// TestMachineMatchesScalarInterpreter is the machine's differential
// property: lockstep SIMT execution with divergence stacks produces the
// same memory as naive one-thread-at-a-time execution, under every
// protection scheme. Each kernel also runs under the reference scheduler,
// which must reproduce the default launch's Stats and memory exactly:
// diffGen kernels are the only test kernels with ATOM, so this is the
// reference differential over atomHold parking and unparking.
func TestMachineMatchesScalarInterpreter(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(40000 + trial)
		k := diffGen(seed, 2, 64)
		n := 2 * 64
		memSize := 6*n + 8
		init := make([]uint32, memSize)
		rng := rand.New(rand.NewSource(seed))
		for i := 2 * n; i < 5*n; i++ {
			init[i] = math.Float32bits(float32(rng.Intn(32)) * 0.25)
		}

		want := append([]uint32(nil), init...)
		scalarRun(t, k, want)

		ref := DefaultConfig()
		ref.Reference = true
		for _, s := range []compiler.Scheme{compiler.Baseline, compiler.SwapECC, compiler.SWDup} {
			ks := compiler.MustApply(k, s)
			launch := func(cfg Config) (*Stats, []uint32) {
				g := NewGPU(cfg, memSize)
				copy(g.Mem, init)
				st, err := g.Launch(ks)
				if err != nil {
					t.Fatalf("seed %d %v: %v", seed, s, err)
				}
				return st, g.Mem
			}
			st, mem := launch(DefaultConfig())
			for i := range want {
				if mem[i] != want[i] {
					t.Fatalf("seed %d %v: mem[%d] = %#x, scalar reference %#x",
						seed, s, i, mem[i], want[i])
				}
			}
			rst, rmem := launch(ref)
			if !reflect.DeepEqual(rst, st) {
				t.Errorf("seed %d %v: reference Stats diverge from the default launch\n got %+v\nwant %+v",
					seed, s, rst, st)
			}
			if !reflect.DeepEqual(rmem, mem) {
				t.Errorf("seed %d %v: reference final memory diverges from the default launch", seed, s)
			}
		}
	}
}
