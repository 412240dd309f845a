package compiler

import (
	"strings"
	"testing"

	"swapcodes/internal/isa"
)

const saxpySrc = `
; SAXPY in the textual syntax.
.kernel saxpy grid=2 cta=128 shared=0
    s2r    r0, tid
    s2r    r1, ctaid
    s2r    r2, ntid
    imad   r3, r1, r2, r0
    mov    r6, #2.5f
    ldg    r4, [r3+0]
    ldg    r5, [r3+256]
    ffma   r5, r6, r4, r5
    isetp.lt p0, r0, #16
@p0 bra    Skip, Skip
    stg    [r3+256], r5
Skip:
    exit
`

func TestParseSaxpy(t *testing.T) {
	k, err := Parse(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "saxpy" || k.GridCTAs != 2 || k.CTAThreads != 128 {
		t.Errorf("header: %+v", k)
	}
	if k.Code[0].Op != isa.S2R || k.Code[3].Op != isa.IMAD {
		t.Error("opcodes")
	}
	// The float immediate.
	if k.Code[4].Op != isa.MOV || uint32(k.Code[4].Imm) != 0x40200000 {
		t.Errorf("float imm: %#x", uint32(k.Code[4].Imm))
	}
	// The guarded branch.
	br := k.Code[9]
	if br.Op != isa.BRA || br.GuardPred != 0 || br.GuardNeg {
		t.Errorf("branch: %+v", br)
	}
	if int(br.Imm) != 11 || int(br.Reconv) != 11 {
		t.Errorf("branch target/reconv: %d/%d", br.Imm, br.Reconv)
	}
}

// structurallyEqual compares kernels ignoring profiling categories.
func structurallyEqual(t *testing.T, a, b *isa.Kernel) {
	t.Helper()
	if a.GridCTAs != b.GridCTAs || a.CTAThreads != b.CTAThreads ||
		a.SharedWords != b.SharedWords || len(a.Code) != len(b.Code) {
		t.Fatalf("shape mismatch: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.GridCTAs, a.CTAThreads, a.SharedWords, len(a.Code),
			b.GridCTAs, b.CTAThreads, b.SharedWords, len(b.Code))
	}
	for pc := range a.Code {
		x, y := a.Code[pc], b.Code[pc]
		x.Cat, y.Cat = 0, 0
		if x != y {
			t.Fatalf("pc %d:\n  %+v\nvs\n  %+v", pc, x, y)
		}
	}
}

func TestFormatParseRoundTripSaxpy(t *testing.T) {
	k := MustParse(saxpySrc)
	again, err := Parse(Format(k))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, Format(k))
	}
	structurallyEqual(t, k, again)
}

// TestRoundTripFuzzKernels: Format/Parse round-trips randomly generated
// kernels, including after every protection pass (shadow/predicted flags).
func TestRoundTripFuzzKernels(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		k, _ := generateKernelForText(int64(9000 + trial))
		for _, s := range []Scheme{Baseline, SWDup, SwapECC, SwapPredictMAD} {
			tk := MustApply(k, s)
			text := Format(tk)
			again, err := Parse(text)
			if err != nil {
				t.Fatalf("seed %d %v: %v", trial, s, err)
			}
			structurallyEqual(t, tk, again)
		}
	}
}

// FuzzParse feeds the .sasm assembler arbitrary text, as swapsim -file
// does: no input may panic Parse, and any kernel it accepts must survive
// Format and Parse again unchanged. The seeds are saxpySrc and the
// formatted kernels TestRoundTripFuzzKernels round-trips.
func FuzzParse(f *testing.F) {
	f.Add(saxpySrc)
	for trial := 0; trial < 12; trial++ {
		k, _ := generateKernelForText(int64(9000 + trial))
		for _, s := range []Scheme{Baseline, SWDup, SwapECC, SwapPredictMAD} {
			f.Add(Format(MustApply(k, s)))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(k)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted kernel does not parse: %v\n%s", err, text)
		}
		structurallyEqual(t, k, again)
	})
}

// generateKernelForText builds a small random kernel without importing the
// sm-dependent fuzz generator (avoiding an import cycle in-package).
func generateKernelForText(seed int64) (*isa.Kernel, int) {
	a := NewAsm("rt")
	a.S2R(0, isa.SRTid)
	a.IAddI(1, 0, int32(seed%100))
	a.MovF(2, float32(seed)*0.5)
	a.IMad(3, 0, 1, 2)
	a.FFma(4, 2, 2, 2)
	a.DAdd(6, 6, 8)
	a.IMadWide(10, 0, 1, 6)
	a.Shfl(5, 4, 1)
	a.Mufu(isa.FnSQRT, 5, 5)
	a.ISetpI(isa.CmpLT, 1, 0, int32(seed%31))
	a.BraP(1, seed%2 == 0, "end", "end")
	a.Atom(isa.OpAdd, isa.RZ, 0, 1, 0)
	a.AtomCAS(9, 0, 1, 3, 2)
	a.Sts(0, 0, 4)
	a.Bar()
	a.Lds(4, 0, 0)
	a.Label("end")
	a.Stg(0, 4, 4)
	a.Exit()
	return a.MustBuild(1, 64, 64), 128
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"exit",                                                   // code before .kernel
		".kernel k grid=1 cta=32\n  bogus r0",                    // unknown opcode
		".kernel k grid=1 cta=32\n  mov r0",                      // arity
		".kernel k grid=1 cta=32\n  mov r999, #1\n  exit",        // bad register
		".kernel k grid=1 cta=32\n  ldg r0, r1\n  exit",          // not a memory operand
		".kernel k grid=1 cta=32\n  bra nowhere\n  exit",         // undefined label
		".kernel k grid=1 cta=32\n  isetp.xx p0, r0, #1\n  exit", // bad modifier
		".kernel k grid=1 cta=32 bad=1\n  exit",                  // bad field
		"",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestFormatIsHumanReadable(t *testing.T) {
	k := MustParse(saxpySrc)
	out := Format(k)
	for _, want := range []string{".kernel saxpy", "imad", "ffma", "@p0 bra", "isetp.lt", "[r3+256]"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestParsedKernelRunsIdentically(t *testing.T) {
	// A parsed kernel must behave exactly like its DSL twin; reuse the
	// structural comparison plus validation.
	k := MustParse(saxpySrc)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.NumRegs != 7 {
		t.Errorf("NumRegs %d, want 7", k.NumRegs)
	}
}
