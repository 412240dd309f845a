// Package gates provides a gate-level netlist framework: a builder for
// combinational logic with explicit pipeline flip-flops, a 64-lane
// bit-parallel evaluator with single-node fault forcing (the substrate for
// Hamartia-style error injection), and a NAND2-gate-equivalent area model
// used to reproduce the paper's Table IV synthesis estimates.
//
// Circuits are directed acyclic graphs built in topological order: a gate may
// only reference previously created nodes, so evaluation is a single forward
// pass. Flip-flops mark pipeline-stage boundaries; functionally (with a
// flushed pipeline) they act as buffers, but the fault injector targets them
// separately so that pipeline-state upsets are represented alongside
// combinational-logic upsets, as in the paper's gate-level campaigns.
package gates

import (
	"fmt"
	"sync"
)

// Kind enumerates gate types.
type Kind uint8

// Gate kinds. Mux selects in1 when the select input in0 is 0 and in2 when it
// is 1. FF is a pipeline flip-flop (functionally a buffer).
const (
	Const0 Kind = iota
	Const1
	Input
	Buf
	Not
	And
	Or
	Xor
	Nand
	Nor
	Xnor
	Mux
	FF
)

var kindNames = [...]string{"const0", "const1", "input", "buf", "not", "and", "or", "xor", "nand", "nor", "xnor", "mux", "ff"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Circuit is an immutable gate-level netlist.
type Circuit struct {
	name    string
	kinds   []Kind
	in0     []int32
	in1     []int32
	in2     []int32
	inputs  []int
	outputs []int
	stages  int

	// Lazily built incremental-evaluation structure (cone.go), cached on
	// the circuit so concurrent evaluators share one copy.
	coneOnce sync.Once
	fanHead  []int32   // CSR fan-out adjacency: edges of node i are
	fanEdge  []int32   // fanEdge[fanHead[i]:fanHead[i+1]]
	outIdx   [][]int32 // node -> primary-output positions it drives
	coneSize []int32   // node -> fan-out cone size, the node included
}

// Name returns the unit's name.
func (c *Circuit) Name() string { return c.name }

// NumNodes returns the total node count (including inputs and constants).
func (c *Circuit) NumNodes() int { return len(c.kinds) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

// Stages returns the number of pipeline stages (FF cut count).
func (c *Circuit) Stages() int { return c.stages }

// NumFF counts pipeline flip-flops.
func (c *Circuit) NumFF() int {
	n := 0
	for _, k := range c.kinds {
		if k == FF {
			n++
		}
	}
	return n
}

// FaultSites returns the node indices eligible for single-event injection:
// every logic gate and flip-flop output (primary inputs and constants are
// excluded — errors on input buses belong to the storage/transmission sphere
// the paper protects by conventional means).
func (c *Circuit) FaultSites() []int {
	var sites []int
	for i, k := range c.kinds {
		switch k {
		case Const0, Const1, Input:
		default:
			sites = append(sites, i)
		}
	}
	return sites
}

// Kind returns the kind of node i.
func (c *Circuit) Kind(i int) Kind { return c.kinds[i] }

// Evaluator evaluates a circuit over 64 independent input vectors at once
// (one per bit lane). It owns scratch storage so repeated evaluations do not
// allocate.
type Evaluator struct {
	c   *Circuit
	val []uint64
	out []uint64
}

// NewEvaluator returns an evaluator for c.
func NewEvaluator(c *Circuit) *Evaluator {
	return &Evaluator{
		c:   c,
		val: make([]uint64, len(c.kinds)),
		out: make([]uint64, len(c.outputs)),
	}
}

// NoFault disables fault forcing for an Eval call.
const NoFault = -1

// Eval runs the circuit on 64 parallel input vectors. inputs[i] carries the
// 64 lane values of primary input i. If faultNode >= 0, that node's output
// is inverted in every lane (a single-event upset of the gate or flip-flop).
// The returned slice (one word per primary output) aliases the evaluator's
// scratch and is valid until the next Eval.
func (e *Evaluator) Eval(inputs []uint64, faultNode int) []uint64 {
	c := e.c
	if len(inputs) != len(c.inputs) {
		panic(fmt.Sprintf("gates: %s: got %d inputs, want %d", c.name, len(inputs), len(c.inputs)))
	}
	val := e.val
	nextIn := 0
	for i, k := range c.kinds {
		var v uint64
		switch k {
		case Const0:
			v = 0
		case Const1:
			v = ^uint64(0)
		case Input:
			v = inputs[nextIn]
			nextIn++
		case Buf, FF:
			v = val[c.in0[i]]
		case Not:
			v = ^val[c.in0[i]]
		case And:
			v = val[c.in0[i]] & val[c.in1[i]]
		case Or:
			v = val[c.in0[i]] | val[c.in1[i]]
		case Xor:
			v = val[c.in0[i]] ^ val[c.in1[i]]
		case Nand:
			v = ^(val[c.in0[i]] & val[c.in1[i]])
		case Nor:
			v = ^(val[c.in0[i]] | val[c.in1[i]])
		case Xnor:
			v = ^(val[c.in0[i]] ^ val[c.in1[i]])
		case Mux:
			s := val[c.in0[i]]
			v = (val[c.in1[i]] &^ s) | (val[c.in2[i]] & s)
		}
		if i == faultNode {
			v = ^v
		}
		val[i] = v
	}
	for i, o := range c.outputs {
		e.out[i] = val[o]
	}
	return e.out
}

// EvalScalar evaluates a single input vector given as bools, returning the
// outputs as bools; convenient for unit tests.
func (e *Evaluator) EvalScalar(inputs []bool, faultNode int) []bool {
	words := make([]uint64, len(inputs))
	for i, b := range inputs {
		if b {
			words[i] = 1
		}
	}
	out := e.Eval(words, faultNode)
	res := make([]bool, len(out))
	for i, w := range out {
		res[i] = w&1 != 0
	}
	return res
}
