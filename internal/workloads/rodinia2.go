package workloads

import (
	"fmt"
	"math"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
)

// LUD models the Rodinia LU decomposition: each CTA factorizes its own
// shared-memory tile in place (no pivoting), with heavily predicated
// row/column phases separated by barriers — a mix of reciprocal, FMA, and
// divergent guarded work.
func LUD() *Workload {
	const (
		grid = 8
		side = 16
		cta  = side * side
	)
	offIn := 0
	offOut := grid * cta
	const (
		rTid, rX, rY, rCta, rNTid = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
		rG, rK, rAddr, rV         = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
		rPiv, rRec, rL, rU, rT    = isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12), isa.Reg(13)
		rKS                       = isa.Reg(14)
	)
	b := compiler.NewAsm("lud")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNTid, isa.SRNTid)
	b.IMad(rG, rCta, rNTid, rTid)
	b.AndI(rX, rTid, side-1)
	b.ShrI(rY, rTid, 4)
	b.Ldg(rV, rG, int32(offIn))
	b.Sts(rTid, 0, rV)
	b.Bar()
	b.IMulI(rAddr, rY, side)
	b.IAdd(rAddr, rAddr, rX)
	b.MovI(rK, 0)
	b.Label("kloop")
	// Column scale: threads with x==k, y>k compute L[y][k] = A[y][k]/A[k][k].
	b.IMulI(rKS, rK, side)
	b.IAdd(rT, rKS, rK)
	b.Lds(rPiv, rT, 0)
	b.Mufu(isa.FnRCP, rRec, rPiv)
	b.ISetp(isa.CmpEQ, 1, rX, rK)
	b.ISetp(isa.CmpGT, 2, rY, rK)
	b.Lds(rV, rAddr, 0)
	b.FMul(rT, rV, rRec)
	b.Bar() // all loads complete before any column store
	b.Sts(rAddr, 0, rT)
	b.Guard(1, false) // only x==k column...
	b.Bar()
	// ...but restrict to y>k via a second predicated pass: rows y<=k keep
	// their original value (the guarded store above may have scaled them —
	// undo by re-storing the original for y<=k, x==k).
	b.Sts(rAddr, 0, rV)
	b.Guard(2, true)
	b.Bar()
	// Trailing submatrix update: y>k && x>k: A[y][x] -= L[y][k]*A[k][x].
	b.ISetp(isa.CmpGT, 3, rX, rK)
	b.IAdd(rT, rKS, rX)
	b.Lds(rU, rT, 0) // A[k][x]
	b.IMulI(rT, rY, side)
	b.IAdd(rT, rT, rK)
	b.Lds(rL, rT, 0) // L[y][k]
	b.Lds(rV, rAddr, 0)
	b.FMul(rL, rL, rU)
	b.FSub(rV, rV, rL)
	b.Bar() // all reads of row k and column k precede the update stores
	b.Sts(rAddr, 0, rV)
	b.Guard(2, false)
	b.Bar()
	b.IAddI(rK, rK, 1)
	b.ISetpI(isa.CmpLT, 0, rK, side-1)
	b.BraP(0, false, "kloop", "kdone")
	b.Label("kdone")
	b.Lds(rV, rAddr, 0)
	b.Stg(rG, int32(offOut), rV)
	b.Exit()
	k := b.MustBuild(grid, cta, cta)
	// The double-predication above is subtle; the host reference mirrors the
	// EXACT sequence (including the undo stores), not textbook LU.
	setup := func(g *sm.GPU) {
		r := lcg(707)
		for i := 0; i < grid*cta; i++ {
			// Diagonally dominant tiles keep the factorization stable.
			v := r.f32(0.1, 1)
			if i%cta%(side+1) == 0 {
				v += 8
			}
			g.SetFloat32(offIn+i, v)
		}
	}
	verify := func(g *sm.GPU) error {
		for c := 0; c < grid; c++ {
			a := make([]float32, cta)
			for i := range a {
				a[i] = g.Float32(offIn + c*cta + i)
			}
			for kk := 0; kk < side-1; kk++ {
				piv := a[kk*side+kk]
				rec := float32(1 / float64(piv))
				// Column scale with undo for y<=k.
				next := append([]float32(nil), a...)
				for y := 0; y < side; y++ {
					next[y*side+kk] = a[y*side+kk] * rec
				}
				for y := 0; y <= kk; y++ {
					next[y*side+kk] = a[y*side+kk]
				}
				a = next
				// Trailing update for y>k, all columns (the kernel applies
				// it unmasked in x; the host mirrors the kernel, not
				// textbook LU).
				next = append([]float32(nil), a...)
				for y := kk + 1; y < side; y++ {
					for x := 0; x < side; x++ {
						l := a[y*side+kk] * a[kk*side+x]
						next[y*side+x] = a[y*side+x] - l
					}
				}
				a = next
			}
			for i := range a {
				if got := g.Float32(offOut + c*cta + i); !approx32(got, a[i], 2e-4) {
					return fmt.Errorf("lud: tile %d cell %d = %v, want %v", c, i, got, a[i])
				}
			}
		}
		return nil
	}
	return &Workload{Name: "lud", Kernel: k, MemWords: 2 * grid * cta, Setup: setup, Verify: verify}
}

// Gauss models the Rodinia gaussian elimination Fan2 kernel: per-CTA
// independent systems eliminated column by column directly in global
// memory — reciprocal-scaled row updates with loads and stores per element
// every step.
func Gauss() *Workload {
	const (
		grid = 8
		side = 16
		cta  = side * side
	)
	offA := 0
	const (
		rTid, rX, rY, rCta, rNTid = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
		rBase, rK, rAddr, rV      = isa.Reg(5), isa.Reg(6), isa.Reg(7), isa.Reg(8)
		rPiv, rRec, rM, rKV, rT   = isa.Reg(9), isa.Reg(10), isa.Reg(11), isa.Reg(12), isa.Reg(13)
	)
	b := compiler.NewAsm("gauss")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNTid, isa.SRNTid)
	b.IMad(rBase, rCta, rNTid, isa.RZ) // CTA matrix base
	b.AndI(rX, rTid, side-1)
	b.ShrI(rY, rTid, 4)
	b.IMulI(rAddr, rY, side)
	b.IAdd(rAddr, rAddr, rX)
	b.IAdd(rAddr, rAddr, rBase)
	b.MovI(rK, 0)
	b.Label("kloop")
	// m = A[y][k] / A[k][k]; A[y][x] -= m*A[k][x] for y>k.
	b.IMulI(rT, rK, side)
	b.IAdd(rT, rT, rK)
	b.IAdd(rT, rT, rBase)
	b.Ldg(rPiv, rT, int32(offA))
	b.Mufu(isa.FnRCP, rRec, rPiv)
	b.IMulI(rT, rY, side)
	b.IAdd(rT, rT, rK)
	b.IAdd(rT, rT, rBase)
	b.Ldg(rM, rT, int32(offA))
	b.FMul(rM, rM, rRec)
	b.IMulI(rT, rK, side)
	b.IAdd(rT, rT, rX)
	b.IAdd(rT, rT, rBase)
	b.Ldg(rKV, rT, int32(offA))
	b.Ldg(rV, rAddr, int32(offA))
	b.FMul(rT, rM, rKV)
	b.FSub(rV, rV, rT)
	b.ISetp(isa.CmpGT, 1, rY, rK)
	b.ISetp(isa.CmpGE, 2, rX, rK)
	b.Bar() // every thread's loads precede any elimination store
	b.Stg(rAddr, int32(offA), rV)
	b.Guard(1, false)
	b.Bar()
	b.IAddI(rK, rK, 1)
	b.ISetpI(isa.CmpLT, 0, rK, side-1)
	b.BraP(0, false, "kloop", "kdone")
	b.Label("kdone")
	b.Exit()
	k := b.MustBuild(grid, cta, 0)
	// input is the matrices before elimination. The kernel updates them in
	// place, so Verify regenerates them rather than reading state Setup
	// left behind: a GPU set up by another instance, or two overlapping
	// launches of this one, must verify the same.
	input := func() []float32 {
		r := lcg(808)
		a := make([]float32, grid*cta)
		for i := range a {
			a[i] = r.f32(0.1, 1)
			if i%cta%(side+1) == 0 {
				a[i] += 8
			}
		}
		return a
	}
	setup := func(g *sm.GPU) {
		for i, v := range input() {
			g.SetFloat32(offA+i, v)
		}
	}
	verify := func(g *sm.GPU) error {
		in := input()
		for c := 0; c < grid; c++ {
			a := in[c*cta : (c+1)*cta]
			for kk := 0; kk < side-1; kk++ {
				rec := float32(1 / float64(a[kk*side+kk]))
				next := append([]float32(nil), a...)
				for y := kk + 1; y < side; y++ {
					m := a[y*side+kk] * rec
					for x := 0; x < side; x++ {
						next[y*side+x] = a[y*side+x] - m*a[kk*side+x]
					}
				}
				a = next
			}
			for i := range a {
				if got := g.Float32(offA + c*cta + i); !approx32(got, a[i], 2e-4) {
					return fmt.Errorf("gauss: system %d cell %d = %v, want %v", c, i, got, a[i])
				}
			}
		}
		return nil
	}
	return &Workload{Name: "gauss", Kernel: k, MemWords: grid * cta, Setup: setup, Verify: verify}
}

// SradV2 models the Rodinia srad_v2 diffusion kernel: gradient and
// Laplacian stencils, a reciprocal-based diffusion coefficient with
// predicated clamping, and two stored outputs per cell — the program with
// the highest checking-code bloat in Figure 13.
func SradV2() *Workload {
	const (
		grid   = 4
		width  = 32
		height = 8
		tileN  = width * height
		cta    = tileN
		perThr = 4 // pixels per thread, looped
		n      = grid * cta * perThr
		q0sqr  = float32(0.05)
	)
	// The image sits between guard-padding rows so the (unguarded) diagonal
	// loads of boundary pixels stay in bounds.
	const (
		pad  = width + 1
		offI = pad
		offC = offI + n + pad
		offO = offC + n
	)
	const (
		rTid, rCta, rNTid, rG  = isa.Reg(0), isa.Reg(1), isa.Reg(2), isa.Reg(3)
		rX, rY, rJ             = isa.Reg(4), isa.Reg(5), isa.Reg(6)
		rN, rS, rE, rW         = isa.Reg(7), isa.Reg(8), isa.Reg(9), isa.Reg(10)
		rDN, rDS, rDE, rDW     = isa.Reg(11), isa.Reg(12), isa.Reg(13), isa.Reg(14)
		rG2, rL, rNum, rDen    = isa.Reg(15), isa.Reg(16), isa.Reg(17), isa.Reg(18)
		rQ, rC, rT, rRec, rNew = isa.Reg(19), isa.Reg(20), isa.Reg(21), isa.Reg(22), isa.Reg(23)
		rK16                   = isa.Reg(24)
		rNE, rNW, rSE, rSW     = isa.Reg(25), isa.Reg(26), isa.Reg(27), isa.Reg(28)
		rP                     = isa.Reg(29)
	)
	b := compiler.NewAsm("srad_v2")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNTid, isa.SRNTid)
	b.IMad(rG, rCta, rNTid, rTid)
	b.AndI(rX, rTid, width-1)
	b.ShrI(rY, rTid, 5)
	b.MovI(rP, 0)
	b.Label("ploop")
	b.Ldg(rJ, rG, offI)
	// Clamped neighbour loads (boundary reuses the centre value).
	b.IAddI(rT, rY, -1)
	b.ISetpI(isa.CmpGE, 1, rT, 0)
	b.Mov(rN, rJ)
	b.Ldg(rN, rG, offI-width)
	b.Guard(1, false)
	b.IAddI(rT, rY, 1)
	b.ISetpI(isa.CmpLT, 1, rT, height)
	b.Mov(rS, rJ)
	b.Ldg(rS, rG, offI+width)
	b.Guard(1, false)
	b.IAddI(rT, rX, 1)
	b.ISetpI(isa.CmpLT, 1, rT, width)
	b.Mov(rE, rJ)
	b.Ldg(rE, rG, offI+1)
	b.Guard(1, false)
	b.IAddI(rT, rX, -1)
	b.ISetpI(isa.CmpGE, 1, rT, 0)
	b.Mov(rW, rJ)
	b.Ldg(rW, rG, offI-1)
	b.Guard(1, false)
	// Diagonal neighbours (9-point variant): unguarded — the padding rows
	// absorb the boundary accesses.
	b.Ldg(rNE, rG, offI-width+1)
	b.Ldg(rNW, rG, offI-width-1)
	b.Ldg(rSE, rG, offI+width+1)
	b.Ldg(rSW, rG, offI+width-1)
	b.FAdd(rNE, rNE, rNW)
	b.FAdd(rSE, rSE, rSW)
	b.FAdd(rNE, rNE, rSE)
	b.FMulI(rNE, rNE, 0.0625) // 0.25 weight on the diagonal average
	b.FMulI(rT, rJ, 0.75)
	b.FAdd(rJ, rT, rNE) // pre-smoothed centre value
	// Directional derivatives.
	b.FSub(rDN, rN, rJ)
	b.FSub(rDS, rS, rJ)
	b.FSub(rDE, rE, rJ)
	b.FSub(rDW, rW, rJ)
	// G2 = (dN^2+dS^2+dE^2+dW^2) / J^2 ; L = (dN+dS+dE+dW)/J.
	b.FMul(rG2, rDN, rDN)
	b.FFma(rG2, rDS, rDS, rG2)
	b.FFma(rG2, rDE, rDE, rG2)
	b.FFma(rG2, rDW, rDW, rG2)
	b.Mufu(isa.FnRCP, rRec, rJ)
	b.FMul(rT, rRec, rRec)
	b.FMul(rG2, rG2, rT)
	b.FAdd(rL, rDN, rDS)
	b.FAdd(rL, rL, rDE)
	b.FAdd(rL, rL, rDW)
	b.FMul(rL, rL, rRec)
	// q = (0.5*G2 - (1/16)*L^2) / (1 + 0.25*L)^2.
	b.FMulI(rNum, rG2, 0.5)
	b.FMul(rT, rL, rL)
	b.MovF(rK16, -1.0/16.0)
	b.FFma(rNum, rT, rK16, rNum)
	b.FMulI(rDen, rL, 0.25)
	b.FAddI(rDen, rDen, 1)
	b.FMul(rDen, rDen, rDen)
	b.Mufu(isa.FnRCP, rT, rDen)
	b.FMul(rQ, rNum, rT)
	// c = 1 / (1 + (q - q0)/(q0*(1+q0))), clamped to [0,1].
	b.FAddI(rT, rQ, -q0sqr)
	b.FMulI(rT, rT, 1/(q0sqr*(1+q0sqr)))
	b.FAddI(rT, rT, 1)
	b.Mufu(isa.FnRCP, rC, rT)
	b.FSetp(isa.CmpLT, 1, rC, isa.RZ)
	b.MovF(rC, 0)
	b.Guard(1, false)
	b.MovF(rT, 1)
	b.FSetp(isa.CmpGT, 2, rC, rT)
	b.MovF(rC, 1)
	b.Guard(2, false)
	// Store coefficient and the updated image value.
	b.Stg(rG, offC, rC)
	b.FMulI(rNew, rL, 0.25)
	b.FMul(rNew, rNew, rC)
	b.FAdd(rNew, rJ, rNew)
	b.Stg(rG, offO, rNew)
	b.IAddI(rG, rG, grid*cta) // stride to this thread's next pixel plane
	b.IAddI(rP, rP, 1)
	b.ISetpI(isa.CmpLT, 0, rP, perThr)
	b.BraP(0, false, "ploop", "pdone")
	b.Label("pdone")
	b.Exit()
	k := b.MustBuild(grid, cta, 0)

	setup := func(g *sm.GPU) {
		r := lcg(909)
		for i := 0; i < n; i++ {
			g.SetFloat32(offI+i, r.f32(0.5, 2))
		}
	}
	verify := func(g *sm.GPU) error {
		for c := 0; c < grid*perThr; c++ {
			for t := 0; t < cta; t++ {
				i := c%grid*cta + t + c/grid*grid*cta
				x, y := t%width, t/width
				j := g.Float32(offI + i)
				ld := func(cond bool, off int) float32 {
					if cond {
						return g.Float32(offI + i + off)
					}
					return j
				}
				nv := ld(y-1 >= 0, -width)
				sv := ld(y+1 < height, width)
				ev := ld(x+1 < width, 1)
				wv := ld(x-1 >= 0, -1)
				ne := g.Float32(offI + i - width + 1)
				nw := g.Float32(offI + i - width - 1)
				se := g.Float32(offI + i + width + 1)
				sw := g.Float32(offI + i + width - 1)
				diag := ((ne + nw) + (se + sw)) * 0.0625
				j = j*0.75 + diag
				dN, dS, dE, dW := nv-j, sv-j, ev-j, wv-j
				g2 := dN * dN
				g2 = float32(math.FMA(float64(dS), float64(dS), float64(g2)))
				g2 = float32(math.FMA(float64(dE), float64(dE), float64(g2)))
				g2 = float32(math.FMA(float64(dW), float64(dW), float64(g2)))
				rec := float32(1 / float64(j))
				g2 *= rec * rec
				l := ((dN + dS) + dE) + dW
				l *= rec
				num := g2 * 0.5
				num = float32(math.FMA(float64(l*l), float64(float32(-1.0/16.0)), float64(num)))
				den := l*0.25 + 1
				den *= den
				q := num * float32(1/float64(den))
				cc := float32(1 / float64((q-q0sqr)*(1/(q0sqr*(1+q0sqr)))+1))
				if cc < 0 {
					cc = 0
				}
				if cc > 1 {
					cc = 1
				}
				if got := g.Float32(offC + i); !approx32(got, cc, 1e-4) {
					return fmt.Errorf("srad: c[%d] = %v, want %v", i, got, cc)
				}
				want := j + l*0.25*cc
				if got := g.Float32(offO + i); !approx32(got, want, 1e-4) {
					return fmt.Errorf("srad: out[%d] = %v, want %v", i, got, want)
				}
			}
		}
		return nil
	}
	return &Workload{Name: "srad_v2", Kernel: k, MemWords: offO + n, Setup: setup, Verify: verify}
}
