// Package swapcodes is a self-contained reproduction of "SwapCodes: Error
// Codes for Hardware-Software Cooperative GPU Pipeline Error Detection"
// (Sullivan et al., MICRO 2018): error codes, the SwapCodes register-file
// contract, a protecting backend compiler, a SIMT GPU simulator, gate-level
// fault injection, and the paper's full evaluation harness.
//
// This top-level package is the public facade: it re-exports the pieces a
// downstream user composes, so the whole flow is importable from one path:
//
//	base := swapcodes.MustParseKernel(src)             // or the Asm DSL
//	prot, _ := swapcodes.Protect(base, swapcodes.SwapECC)
//	cfg := swapcodes.DefaultConfig()
//	cfg.ECC = true
//	gpu := swapcodes.NewGPU(cfg, 1<<16)
//	stats, _ := gpu.Launch(prot)
//
// The implementation packages remain importable directly (swapcodes/internal/...)
// from within this module; see README.md for the architecture map.
package swapcodes

import (
	"context"

	"swapcodes/internal/compiler"
	"swapcodes/internal/core"
	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/isa"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// ---- Kernels and the ISA ----

// Kernel is a compiled device function plus its launch geometry.
type Kernel = isa.Kernel

// Instr is one machine instruction.
type Instr = isa.Instr

// Reg names an architectural register; RZ is the hardwired zero.
type Reg = isa.Reg

// RZ is the zero register.
const RZ = isa.RZ

// Asm is the kernel assembler DSL.
type Asm = compiler.Asm

// NewAsm starts a new kernel in the DSL.
func NewAsm(name string) *Asm { return compiler.NewAsm(name) }

// ParseKernel reads the textual assembly syntax (see compiler.Parse).
func ParseKernel(src string) (*Kernel, error) { return compiler.Parse(src) }

// MustParseKernel is ParseKernel for known-good sources.
func MustParseKernel(src string) *Kernel { return compiler.MustParse(src) }

// FormatKernel renders a kernel in the textual syntax; the output parses
// back to a structurally identical kernel.
func FormatKernel(k *Kernel) string { return compiler.Format(k) }

// ---- Protection schemes ----

// Scheme identifies a protection configuration.
type Scheme = compiler.Scheme

// The protection schemes of the paper's evaluation.
const (
	// Baseline is the un-duplicated program.
	Baseline = compiler.Baseline
	// SWDup is software-enforced intra-thread duplication with checking.
	SWDup = compiler.SWDup
	// SwapECC is the paper's core contribution (Section III-A).
	SwapECC = compiler.SwapECC
	// SwapPredictAddSub adds fixed-point add/sub check-bit prediction.
	SwapPredictAddSub = compiler.SwapPredictAddSub
	// SwapPredictMAD additionally predicts multiply and MAD.
	SwapPredictMAD = compiler.SwapPredictMAD
	// SwapPredictOtherFxP / FpAddSub / FpMAD are the Figure 16 projections.
	SwapPredictOtherFxP = compiler.SwapPredictOtherFxP
	// SwapPredictFpAddSub adds floating-point add/sub prediction.
	SwapPredictFpAddSub = compiler.SwapPredictFpAddSub
	// SwapPredictFpMAD adds floating-point multiply/MAD prediction.
	SwapPredictFpMAD = compiler.SwapPredictFpMAD
	// InterThread is warp-splitting inter-thread duplication (Section V).
	InterThread = compiler.InterThread
	// InterThreadNoCheck is its checking-free theoretical variant.
	InterThreadNoCheck = compiler.InterThreadNoCheck
	// SInRGSig models the HW-Sig-SRIV comparison point of Section VI.
	SInRGSig = compiler.SInRGSig
)

// Protect applies a protection scheme to a kernel.
func Protect(k *Kernel, s Scheme) (*Kernel, error) { return compiler.Apply(k, s) }

// ProtectOpts is Protect with ablation options (compiler.Opts).
func ProtectOpts(k *Kernel, s Scheme, o compiler.Opts) (*Kernel, error) {
	return compiler.ApplyOpts(k, s, o)
}

// ---- The simulated GPU ----

// Config is the SM configuration; GPU the device; Stats a launch summary.
type (
	Config = sm.Config
	GPU    = sm.GPU
	Stats  = sm.Stats
)

// FaultPlan arms single-event pipeline error injection on a GPU.
type FaultPlan = sm.FaultPlan

// DefaultConfig returns the Pascal-class baseline configuration.
func DefaultConfig() Config { return sm.DefaultConfig() }

// NewGPU allocates a device with the given global memory size in words.
func NewGPU(cfg Config, memWords int) *GPU { return sm.NewGPU(cfg, memWords) }

// ---- Error codes and the register-file contract ----

// Code is a systematic register-file error code; Corrector adds correction.
type (
	Code      = ecc.Code
	Corrector = ecc.Corrector
)

// Residue is a low-cost residue code (modulus 2^a - 1).
type Residue = ecc.Residue

// NewResidue returns the low-cost residue code with a check bits (2..8).
func NewResidue(a int) Residue { return ecc.NewResidue(a) }

// NewHsiao returns the (39,32) Hsiao SEC-DED code.
func NewHsiao() *ecc.Hsiao { return ecc.NewHsiao() }

// NewSECDEDDP returns the SEC-DED-DP construction (Section III-B).
func NewSECDEDDP() *ecc.DPCode { return ecc.NewSECDEDDP() }

// NewSECDP returns the SEC-DP construction (Section III-B).
func NewSECDP() *ecc.DPCode { return ecc.NewSECDP() }

// Organization selects the register-file code + reporting scheme.
type Organization = core.Organization

// Register-file organizations.
const (
	OrgSECDEDDP = core.OrgSECDEDDP
	OrgSECDP    = core.OrgSECDP
	OrgTED      = core.OrgTED
	OrgParity   = core.OrgParity
	OrgMod3     = core.OrgMod3
	OrgMod127   = core.OrgMod127
)

// RegFile is a SwapCodes-protected register file (the paper's contribution
// as a standalone component).
type RegFile = core.RegFile

// NewRegFile allocates a protected register file.
func NewRegFile(org Organization, numRegs, lanes int) *RegFile {
	return core.NewRegFile(org, numRegs, lanes)
}

// ---- Workloads and experiments ----

// Workload bundles an evaluation kernel with its data and verifier.
type Workload = workloads.Workload

// Workloads returns the paper's 15 evaluation programs.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName looks up one workload.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// RunPerf sweeps every workload under the given schemes (Figures 12/15/16)
// on all cores; see internal/harness for the per-figure helpers and
// renderers. The numbers are the same at any worker count.
func RunPerf(schemes []Scheme, verify bool) (*harness.PerfResult, error) {
	return harness.RunPerfCtxOpts(context.Background(), engine.New(0), schemes, verify, harness.Options{})
}

// RunInjection runs the gate-level error-injection campaign of Figures
// 10/11 on all cores with the given number of operand tuples per
// arithmetic unit. For a given seed the result is the same at any worker
// count.
func RunInjection(tuples int, seed int64) (*harness.InjectionResult, error) {
	return harness.RunInjectionCtx(context.Background(), engine.New(0), tuples, seed)
}
