package gates

import (
	"fmt"
	"math/bits"
)

// This file implements incremental single-site fault evaluation. A fault
// injected at one node can only disturb the node's fan-out cone, and in
// practice far less: most upsets are logically masked a few gates
// downstream. Evaluator.Eval re-evaluates the whole netlist per attempt;
// the ConeEvaluator instead snapshots every node value in one fault-free
// pass, then propagates each injected flip event by event: a node is
// recomputed only when one of its fan-ins changed, and propagation stops
// where the change is masked. The touched nodes are restored afterwards so
// the snapshot is reusable across attempts.
//
// Two immutable properties of the Circuit back this, computed once and
// shared by every evaluator (the sharded campaigns run many evaluators over
// one circuit): the CSR fan-out adjacency, and every node's fan-out cone
// size — the structural bound that the campaign accounting and ConeStats
// report.

// fanIn calls f for each input node of node i (0, 1, 2, or 3 calls).
func (c *Circuit) fanIn(i int, f func(in int32)) {
	switch c.kinds[i] {
	case Const0, Const1, Input:
	case Buf, Not, FF:
		f(c.in0[i])
	case Mux:
		f(c.in0[i])
		f(c.in1[i])
		f(c.in2[i])
	default: // And, Or, Xor, Nand, Nor, Xnor
		f(c.in0[i])
		f(c.in1[i])
	}
}

// ensureCones builds the CSR fan-out adjacency, the node → output position
// index and the per-node cone sizes exactly once per circuit.
func (c *Circuit) ensureCones() {
	c.coneOnce.Do(func() {
		n := len(c.kinds)
		deg := make([]int32, n)
		for i := 0; i < n; i++ {
			c.fanIn(i, func(in int32) { deg[in]++ })
		}
		head := make([]int32, n+1)
		for i := 0; i < n; i++ {
			head[i+1] = head[i] + deg[i]
		}
		edge := make([]int32, head[n])
		pos := append([]int32(nil), head[:n]...)
		for i := 0; i < n; i++ {
			c.fanIn(i, func(in int32) {
				edge[pos[in]] = int32(i)
				pos[in]++
			})
		}
		c.fanHead, c.fanEdge = head, edge
		c.outIdx = make([][]int32, n)
		for j, o := range c.outputs {
			c.outIdx[o] = append(c.outIdx[o], int32(j))
		}
		c.coneSize = c.sweepConeSizes()
	})
}

// sweepConeSizes returns the fan-out cone size of every node (the node
// itself included) by a bit-parallel forward sweep: one pass per block of
// 64 source nodes. In a pass, bit l of reach[i] says "node i is reachable
// from source node j0+l": the OR of i's fan-ins' words, which each fan-in
// pushes to i before the index-order (topological) scan reaches it. The
// scan stops past the last node any word was pushed to. The words are
// summed lane by lane in bit-sliced counters (cnt[k] holds bit k of all 64
// lane counts), which keeps the per-node cost at a few word operations
// instead of 64 scalar increments. Passes consume reach as they go, so it
// is all-zero again between passes.
func (c *Circuit) sweepConeSizes() []int32 {
	n := len(c.kinds)
	size := make([]int32, n)
	reach := make([]uint64, n)
	var cnt [33]uint64 // cone sizes fit in int32
	for j0 := 0; j0 < n; j0 += 64 {
		src := min(64, n-j0)
		last := j0 + src - 1 // highest index with a possibly non-zero word
		for i := j0; i <= last; i++ {
			w := reach[i]
			if i < j0+src {
				w |= 1 << uint(i-j0)
			}
			if w == 0 {
				continue
			}
			reach[i] = 0
			for k, carry := 0, w; carry != 0; k++ {
				cnt[k], carry = cnt[k]^carry, cnt[k]&carry
			}
			for _, f := range c.fanEdge[c.fanHead[i]:c.fanHead[i+1]] {
				reach[f] |= w
				last = max(last, int(f))
			}
		}
		for l := 0; l < src; l++ {
			var s int32
			for k := range cnt {
				s |= int32(cnt[k]>>uint(l)&1) << uint(k)
			}
			size[j0+l] = s
		}
		cnt = [33]uint64{}
	}
	return size
}

// ConeStats aggregates cone sizes over every fault site of a circuit —
// the structural headroom of incremental fault evaluation.
type ConeStats struct {
	// Sites is the number of fault sites (gates + flip-flops).
	Sites int
	// NetNodes is the total netlist node count.
	NetNodes int
	// MeanCone and MaxCone are the average and largest cone node counts.
	MeanCone float64
	MaxCone  int
	// MeanFrac is MeanCone / NetNodes: the expected fraction of the
	// netlist a uniformly drawn injection can disturb.
	MeanFrac float64
}

// ConeStats computes cone-size statistics over the circuit's fault sites
// from the cached per-node cone sizes.
func (c *Circuit) ConeStats() ConeStats {
	c.ensureCones()
	n := len(c.kinds)
	st := ConeStats{NetNodes: n}
	var total int64
	for _, site := range c.FaultSites() {
		cone := int(c.coneSize[site])
		st.Sites++
		total += int64(cone)
		st.MaxCone = max(st.MaxCone, cone)
	}
	if st.Sites > 0 {
		st.MeanCone = float64(total) / float64(st.Sites)
		st.MeanFrac = st.MeanCone / float64(n)
	}
	return st
}

// EvalCounters tallies the work a ConeEvaluator has done, for throughput
// accounting: ConeNodes / (SiteEvals × netlist nodes) is the fraction of a
// full per-attempt evaluation the sites' cones bound, EvalNodes over the
// same denominator the fraction actually recomputed.
type EvalCounters struct {
	// BaselineNodes counts nodes evaluated by fault-free Baseline passes.
	BaselineNodes int64
	// ConeNodes sums the structural fan-out cone size of every evaluated
	// site: the bound on what an EvalSite call can recompute, not the work
	// it did.
	ConeNodes int64
	// SiteEvals counts EvalSite calls.
	SiteEvals int64
	// EvalNodes counts the nodes EvalSite calls actually recomputed (the
	// site included): the event-driven work, never more than ConeNodes.
	EvalNodes int64
}

// ConeEvaluator evaluates single-node faults incrementally against a
// fault-free snapshot. Usage: Baseline(inputs) once per input batch, then
// any number of EvalSite(site, lanes) calls; each propagates the flip only
// as far as it changes node values and restores the touched nodes, so the
// snapshot stays valid for the next site. Like Evaluator it is 64-lane
// bit-parallel and owns its scratch; it is not safe for concurrent use
// (share the Circuit, not the evaluator).
type ConeEvaluator struct {
	c        *Circuit
	ev       *Evaluator // fault-free pass; ev.val equals base between EvalSite calls
	base     []uint64   // fault-free snapshot from Baseline
	baseOut  []uint64   // snapshot output words
	fout     []uint64   // faulty output scratch returned by EvalSite
	pend     []uint64   // bitmap of nodes queued for recomputation
	touched  []int32    // nodes EvalSite changed, for the restore
	haveBase bool
	counters EvalCounters
}

// NewConeEvaluator returns an incremental evaluator for c.
func NewConeEvaluator(c *Circuit) *ConeEvaluator {
	c.ensureCones()
	n := len(c.kinds)
	return &ConeEvaluator{
		c:       c,
		ev:      NewEvaluator(c),
		base:    make([]uint64, n),
		baseOut: make([]uint64, len(c.outputs)),
		fout:    make([]uint64, len(c.outputs)),
		pend:    make([]uint64, (n+63)/64),
		touched: make([]int32, 0, n),
	}
}

// Counters returns the cumulative work counters.
func (e *ConeEvaluator) Counters() EvalCounters { return e.counters }

// Baseline runs the fault-free forward pass on 64 parallel input vectors
// and snapshots every node value. The returned slice (one word per primary
// output) aliases the evaluator's scratch and is valid until the next call.
func (e *ConeEvaluator) Baseline(inputs []uint64) []uint64 {
	copy(e.baseOut, e.ev.Eval(inputs, NoFault))
	copy(e.base, e.ev.val)
	e.haveBase = true
	e.counters.BaselineNodes += int64(len(e.c.kinds))
	return e.baseOut
}

// EvalSite returns the 64-lane outputs with node site's output inverted in
// the lanes set in lanes, against the last Baseline snapshot. The result is
// identical bit-for-bit to Evaluator.Eval(inputs, site) in every lane of
// lanes; other lanes carry the fault-free outputs. Only the nodes whose
// fan-in changed in lanes are recomputed, in index (topological) order, so
// each is recomputed once, after all its fan-ins. The returned slice
// aliases scratch and is valid until the next EvalSite or Baseline. It does
// not allocate.
func (e *ConeEvaluator) EvalSite(site int, lanes uint64) []uint64 {
	c := e.c
	if site < 0 || site >= len(c.kinds) {
		panic(fmt.Sprintf("gates: %s: cone of node %d out of range", c.name, site))
	}
	if !e.haveBase {
		panic("gates: EvalSite before Baseline")
	}
	val, pend := e.ev.val, e.pend
	touched := e.touched[:0]
	pend[site>>6] |= 1 << uint(site&63)
	evals := 0
	for w, npend := site>>6, 1; npend > 0; {
		for pend[w] == 0 {
			w++
		}
		i := w<<6 | bits.TrailingZeros64(pend[w])
		pend[w] &= pend[w] - 1
		npend--
		evals++
		var v uint64
		switch c.kinds[i] {
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
		// The site's fault-free value is its snapshot value, also for the
		// source kinds (Const/Input), which have no fan-in to recompute and
		// are never queued otherwise.
		if i == site {
			v = val[i] ^ lanes
		}
		if v == val[i] {
			continue // masked here: the fan-outs keep their snapshot values
		}
		val[i] = v
		touched = append(touched, int32(i))
		for _, f := range c.fanEdge[c.fanHead[i]:c.fanHead[i+1]] {
			if m := uint64(1) << uint(f&63); pend[f>>6]&m == 0 {
				pend[f>>6] |= m
				npend++
			}
		}
	}
	e.counters.EvalNodes += int64(evals)

	// Patch the changed outputs over the snapshot, then restore the
	// snapshot so it is reusable for the next site.
	copy(e.fout, e.baseOut)
	for _, i := range touched {
		for _, oj := range c.outIdx[i] {
			e.fout[oj] = val[i]
		}
		val[i] = e.base[i]
	}
	e.touched = touched
	e.counters.ConeNodes += int64(c.coneSize[site])
	e.counters.SiteEvals++
	return e.fout
}
