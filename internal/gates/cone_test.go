package gates

import (
	"fmt"
	"math/rand"
	"testing"
)

// reachable computes node site's fan-out cone by brute force: for each node,
// walk its fan-in transitively and check whether site appears. Quadratic and
// independent of the CSR/BFS code under test.
func reachable(c *Circuit, site int) map[int32]bool {
	cone := map[int32]bool{int32(site): true}
	for i := 0; i < c.NumNodes(); i++ {
		c.fanIn(i, func(in int32) {
			if cone[in] {
				cone[int32(i)] = true
			}
		})
	}
	return cone
}

// coneSizes returns the circuit's cached per-node cone sizes.
func coneSizes(c *Circuit) []int32 {
	c.ensureCones()
	return c.coneSize
}

// randomLanes draws a non-zero EvalSite lane mask: a single lane (what the
// campaign passes), an arbitrary subset, or all 64 lanes.
func randomLanes(rng *rand.Rand) uint64 {
	switch rng.Intn(3) {
	case 0:
		return 1 << uint(rng.Intn(64))
	case 1:
		if m := rng.Uint64(); m != 0 {
			return m
		}
	}
	return ^uint64(0)
}

// checkSite runs EvalSite(site, lanes) and then EvalSite(site, all lanes)
// against the full evaluator: the masked lanes must match Eval and the
// others the fault-free outputs, and the all-lanes call proves the masked
// call restored the snapshot.
func checkSite(t *testing.T, inc *ConeEvaluator, full *Evaluator, words, clean []uint64, site int, lanes uint64) {
	t.Helper()
	want := full.Eval(words, site)
	got := inc.EvalSite(site, lanes)
	for o := range want {
		if d := (got[o] ^ want[o]) & lanes; d != 0 {
			t.Fatalf("site %d (%v) lanes %x output %d: cone %x, full %x", site, inc.c.Kind(site), lanes, o, got[o], want[o])
		}
		if d := (got[o] ^ clean[o]) &^ lanes; d != 0 {
			t.Fatalf("site %d lanes %x output %d: unmasked lanes %x differ from fault-free", site, lanes, o, d)
		}
	}
	got = inc.EvalSite(site, ^uint64(0))
	for o := range want {
		if got[o] != want[o] {
			t.Fatalf("site %d output %d after masked call: cone %x, full %x", site, o, got[o], want[o])
		}
	}
}

// TestFanoutConeMatchesReachability: for random circuits big enough for
// several 64-node sweep passes and a partial last one, every node's cached
// cone size is exactly the number of transitively reachable nodes.
func TestFanoutConeMatchesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 5, 300)
		if c.NumNodes()%64 == 0 {
			t.Fatalf("trial %d: %d nodes leave no partial pass", trial, c.NumNodes())
		}
		sizes := coneSizes(c)
		for site := 0; site < c.NumNodes(); site++ {
			if want := len(reachable(c, site)); int(sizes[site]) != want {
				t.Fatalf("trial %d site %d: cone size %d, want %d", trial, site, sizes[site], want)
			}
		}
	}
}

// TestConeEvaluatorMatchesEval is the tentpole equivalence property on
// random circuits: for every node of the circuit and a random lane mask,
// EvalSite against one Baseline snapshot is bit-identical to a full faulted
// Eval in the masked lanes — and because sites run back-to-back against the
// same snapshot, the pass also proves EvalSite restores the snapshot
// exactly.
func TestConeEvaluatorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 5, 300)
		full := NewEvaluator(c)
		inc := NewConeEvaluator(c)
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		base := inc.Baseline(words)
		clean := append([]uint64(nil), full.Eval(words, NoFault)...)
		for o := range clean {
			if base[o] != clean[o] {
				t.Fatalf("trial %d: baseline output %d mismatch", trial, o)
			}
		}
		for site := 0; site < c.NumNodes(); site++ {
			checkSite(t, inc, full, words, clean, site, randomLanes(rng))
		}
	}
}

// TestConeEvaluatorRebaseline: a second Baseline with different inputs fully
// replaces the snapshot — no stale values from the previous batch or from
// intervening EvalSite calls survive.
func TestConeEvaluatorRebaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 5, 300)
	full := NewEvaluator(c)
	inc := NewConeEvaluator(c)
	sites := c.FaultSites()
	for batch := 0; batch < 5; batch++ {
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		inc.Baseline(words)
		clean := append([]uint64(nil), full.Eval(words, NoFault)...)
		for i := 0; i < 10; i++ {
			checkSite(t, inc, full, words, clean, sites[rng.Intn(len(sites))], randomLanes(rng))
		}
	}
}

// TestEvalSiteOutOfRangePanics: a site outside the netlist is a caller bug
// and must name the circuit and the node.
func TestEvalSiteOutOfRangePanics(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(12)), 3, 20)
	inc := NewConeEvaluator(c)
	inc.Baseline(make([]uint64, c.NumInputs()))
	for _, site := range []int{-1, c.NumNodes()} {
		func() {
			defer func() {
				want := fmt.Sprintf("gates: fuzz: cone of node %d out of range", site)
				if r := recover(); r != want {
					t.Errorf("EvalSite(%d) panicked with %v, want %q", site, r, want)
				}
			}()
			inc.EvalSite(site, ^uint64(0))
		}()
	}
}

// Degenerate circuits: the cone machinery must not assume the presence of
// gates, inputs, or fault sites.

func TestConeDegenerateConstantOnly(t *testing.T) {
	b := NewBuilder("consts")
	b.Output(b.Zero(), b.One())
	c := b.Build()
	if sites := c.FaultSites(); len(sites) != 0 {
		t.Fatalf("constant-only circuit has %d fault sites", len(sites))
	}
	st := c.ConeStats()
	if st.Sites != 0 || st.MeanCone != 0 || st.MaxCone != 0 {
		t.Fatalf("constant-only stats: %+v", st)
	}
	// Cones of the constants themselves are well-defined: just the node.
	for site, n := range coneSizes(c) {
		if n != 1 {
			t.Fatalf("const node %d cone size %d", site, n)
		}
	}
	inc := NewConeEvaluator(c)
	out := inc.Baseline(nil)
	if out[0] != 0 || out[1] != ^uint64(0) {
		t.Fatalf("constant outputs %x %x", out[0], out[1])
	}
	if f := inc.EvalSite(0, ^uint64(0)); f[0] != ^uint64(0) || f[1] != ^uint64(0) {
		t.Fatalf("faulted const0: %x %x", f[0], f[1])
	}
}

func TestConeDegenerateSingleGate(t *testing.T) {
	b := NewBuilder("onegate")
	in := b.Input()
	b.Output(b.Not(in))
	c := b.Build()
	sites := c.FaultSites()
	if len(sites) != 1 {
		t.Fatalf("fault sites: %v", sites)
	}
	sizes := coneSizes(c)
	if sizes[sites[0]] != 1 {
		t.Fatalf("single-gate cone size %d", sizes[sites[0]])
	}
	// The input's cone covers the gate too.
	if sizes[in] != 2 {
		t.Fatalf("input cone size %d", sizes[in])
	}
	inc := NewConeEvaluator(c)
	word := uint64(0x0f0f0f0f0f0f0f0f)
	if out := inc.Baseline([]uint64{word}); out[0] != ^word {
		t.Fatalf("baseline %x", out[0])
	}
	if f := inc.EvalSite(sites[0], ^uint64(0)); f[0] != word {
		t.Fatalf("faulted NOT gives %x", f[0])
	}
	st := c.ConeStats()
	if st.Sites != 1 || st.MeanCone != 1 || st.MaxCone != 1 {
		t.Fatalf("single-gate stats: %+v", st)
	}
}

func TestConeDegenerateFFChain(t *testing.T) {
	b := NewBuilder("ffchain")
	n := b.Input()
	ffs := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		n = b.FF(n)
		ffs = append(ffs, n)
	}
	b.Output(n)
	c := b.Build()
	if got := len(c.FaultSites()); got != 4 {
		t.Fatalf("FF-only circuit has %d sites, want 4", got)
	}
	// FF i's cone is the chain suffix.
	sizes := coneSizes(c)
	for i, ff := range ffs {
		if int(sizes[ff]) != 4-i {
			t.Fatalf("FF %d cone size %d, want %d", i, sizes[ff], 4-i)
		}
	}
	inc := NewConeEvaluator(c)
	word := uint64(0x123456789abcdef0)
	if out := inc.Baseline([]uint64{word}); out[0] != word {
		t.Fatalf("chain baseline %x", out[0])
	}
	for _, ff := range ffs {
		if f := inc.EvalSite(ff, ^uint64(0)); f[0] != ^word {
			t.Fatalf("FF fault gives %x", f[0])
		}
	}
}

// TestConeStatsMatchesCones cross-checks the ConeStats aggregation against
// per-site cone sizes from the brute-force reachability oracle.
func TestConeStatsMatchesCones(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := randomCircuit(rng, 5, 300)
	st := c.ConeStats()
	sites := c.FaultSites()
	if st.Sites != len(sites) || st.NetNodes != c.NumNodes() {
		t.Fatalf("stats header: %+v", st)
	}
	var total, maxC int
	for _, s := range sites {
		n := len(reachable(c, s))
		total += n
		if n > maxC {
			maxC = n
		}
	}
	if st.MaxCone != maxC {
		t.Errorf("MaxCone %d, want %d", st.MaxCone, maxC)
	}
	if want := float64(total) / float64(len(sites)); st.MeanCone != want {
		t.Errorf("MeanCone %v, want %v", st.MeanCone, want)
	}
	if want := st.MeanCone / float64(c.NumNodes()); st.MeanFrac != want {
		t.Errorf("MeanFrac %v, want %v", st.MeanFrac, want)
	}
}

// TestEvalZeroAlloc pins the allocation-free contract of the hot evaluation
// paths: Evaluator.Eval (which used to allocate its output slice per call)
// and ConeEvaluator.Baseline/EvalSite. The circuit has more sites than
// measured calls, so every EvalSite call is the first for its site: there
// is no per-site state to warm.
func TestEvalZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 5, 300)
	full := NewEvaluator(c)
	inc := NewConeEvaluator(c)
	words := make([]uint64, c.NumInputs())
	for i := range words {
		words[i] = rng.Uint64()
	}
	sites := c.FaultSites()
	inc.Baseline(words)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		full.Eval(words, sites[i%len(sites)])
		i++
	}); n != 0 {
		t.Errorf("Evaluator.Eval allocates %.1f/op", n)
	}
	i = 0
	if n := testing.AllocsPerRun(100, func() {
		inc.EvalSite(sites[i%len(sites)], 1<<uint(i&63))
		i++
	}); n != 0 {
		t.Errorf("ConeEvaluator.EvalSite allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		inc.Baseline(words)
	}); n != 0 {
		t.Errorf("ConeEvaluator.Baseline allocates %.1f/op", n)
	}
}

// FuzzConeEquivalence fuzzes the incremental/full equivalence: the fuzzer
// picks the circuit shape, the input lanes, the fault site and the lane
// mask; the property is EvalSite == Eval in the masked lanes, then on every
// lane once all lanes are requested, and == the boolean reference
// interpreter on one lane.
func FuzzConeEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0xdeadbeef), 0)
	f.Add(int64(42), uint64(0), 5)
	f.Add(int64(7), ^uint64(0), 100)
	f.Fuzz(func(t *testing.T, seed int64, w uint64, sitePick int) {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4, 40)
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64() ^ w
		}
		if sitePick < 0 {
			sitePick = -sitePick
		}
		site := sitePick % c.NumNodes()
		full := NewEvaluator(c)
		inc := NewConeEvaluator(c)
		inc.Baseline(words)
		clean := append([]uint64(nil), full.Eval(words, NoFault)...)
		checkSite(t, inc, full, words, clean, site, randomLanes(rng))
		got := inc.EvalSite(site, ^uint64(0))
		// Anchor to the independent interpreter on one lane.
		lane := int(w % 64)
		inputs := make([]bool, c.NumInputs())
		for i := range inputs {
			inputs[i] = words[i]&(1<<uint(lane)) != 0
		}
		ref := refEval(c, inputs, site)
		for o := range ref {
			if gotBit := got[o]&(1<<uint(lane)) != 0; gotBit != ref[o] {
				t.Fatalf("site %d lane %d output %d: cone %v, reference %v", site, lane, o, gotBit, ref[o])
			}
		}
	})
}
