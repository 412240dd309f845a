package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"swapcodes/internal/engine"
	"swapcodes/internal/isa"
	"swapcodes/internal/obs"
	"swapcodes/internal/sm"
	"swapcodes/internal/trace"
)

// fullLimit is a tuple limit no unit of one workload reaches: a
// workload's trace at it is its whole operand stream, and its trace at a
// smaller limit is a prefix of that.
const fullLimit = 1 << 20

// workloadTraces traces every injection source to completion into a trace
// of its own.
func workloadTraces(t *testing.T) []*trace.OperandTrace {
	t.Helper()
	var out []*trace.OperandTrace
	for _, w := range injectionSources() {
		tr := trace.NewOperandTrace(fullLimit)
		g := w.NewGPU(sm.DefaultConfig())
		g.Trace = tr.Func(8)
		if _, err := g.Launch(w.Kernel); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for unit, n := range tr.Counts() {
			if n >= fullLimit {
				t.Fatalf("%s fills %s at %d tuples; raise fullLimit", w.Name, unit, n)
			}
		}
		out = append(out, tr)
	}
	return out
}

// identityOp is, per unit, the opcode whose traced tuple is its operands
// unchanged, so replaying a tuple through a tracer rebuilds it exactly.
var identityOp = map[string]struct {
	op   isa.Opcode
	wide bool
}{
	trace.UnitFxPAdd32: {isa.IADD, false}, trace.UnitFxPMAD32: {isa.IMAD, true},
	trace.UnitFpAdd32: {isa.FADD, false}, trace.UnitFpMAD32: {isa.FFMA, false},
	trace.UnitFpAdd64: {isa.DADD, false}, trace.UnitFpMAD64: {isa.DFMA, false},
}

// mergeAt is the collection algorithm the skipping collector replaced:
// the per-workload traces concatenated per unit in workload order and cut
// at the limit, rebuilt as an OperandTrace.
func mergeAt(traces []*trace.OperandTrace, limit int) *trace.OperandTrace {
	out := trace.NewOperandTrace(limit)
	feed := out.Func(1)
	for _, unit := range trace.UnitNames() {
		var tuples [][]uint64
		for _, tr := range traces {
			tuples = append(tuples, tr.Tuples(unit)...)
		}
		id := identityOp[unit]
		for _, tup := range tuples[:min(limit, len(tuples))] {
			var v [3]uint64
			copy(v[:], tup)
			feed(id.op, id.wide, 0, v[0], v[1], v[2], 0)
		}
	}
	return out
}

func marshal(t *testing.T, tr *trace.OperandTrace) []byte {
	t.Helper()
	b, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCollectOperandsMatchesReference: the serial collector that skips
// workloads which can only feed full units writes the bytes the
// collect-everything-then-merge reference writes, at every limit, and
// launches only the workloads it needs (one "trace:<workload>" span
// each). The SHA-256 pins are the bytes the parallel collector wrote
// before the skip rule.
func TestCollectOperandsMatchesReference(t *testing.T) {
	traces := workloadTraces(t)
	for _, c := range []struct {
		limit    int
		launched int
		sha      string
	}{
		{1, 2, ""},
		{1000, 3, "5f72c8fdcde851b255672f2d927809af44d635b26ead8b0ba9e8f644ed641025"},
		{2000, 4, "bc36c8db263c31d82edec48f369b0e32d674707995b4838effb6490afcca8dba"},
		{10000, 5, "dce2b121f8d6dc1d00d16d121dce9ca94fa3d36e82ae5c95abc0a9848b6bb7c3"},
		{fullLimit, 14, ""},
	} {
		pool, rec := engine.New(2), obs.NewRecorder()
		pool.SetObs(rec)
		tr, err := CollectOperandsCtx(context.Background(), pool, c.limit)
		if err != nil {
			t.Fatal(err)
		}
		var launched []string
		for _, e := range rec.Events() {
			if name, ok := strings.CutPrefix(e.Name, "trace:"); ok {
				launched = append(launched, name)
			}
		}
		ref := mergeAt(traces, c.limit)
		got := marshal(t, tr)
		if string(got) != string(marshal(t, ref)) {
			t.Errorf("limit %d: collector counts %v, reference counts %v; bytes differ",
				c.limit, tr.Counts(), ref.Counts())
		}
		if sum := sha256.Sum256(got); c.sha != "" && hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("limit %d: sha256 %x, want %s", c.limit, sum, c.sha)
		}
		if len(launched) != c.launched {
			t.Errorf("limit %d: launched %d workloads %v, want %d", c.limit, len(launched), launched, c.launched)
		}
		if c.limit == 2000 {
			if got := strings.Join(launched, ","); got != "lavaMD,bprop,kmeans,snap" {
				t.Errorf("limit 2000 launched %s, want lavaMD,bprop,kmeans,snap", got)
			}
		}
	}
}

// TestTracedLaunchMatchesUntraced: an armed tracer changes nothing the
// simulator computes. Traced opcodes leave the fused fast path for the
// generic one, so a traced launch of every injection source must give the
// untraced launch's Stats and final memory.
func TestTracedLaunchMatchesUntraced(t *testing.T) {
	for _, w := range injectionSources() {
		run := func(traced bool) (*sm.Stats, []uint32) {
			g := w.NewGPU(sm.DefaultConfig())
			if traced {
				g.Trace = trace.NewOperandTrace(fullLimit).Func(8)
			}
			st, err := g.Launch(w.Kernel)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			return st, g.Mem
		}
		st, mem := run(false)
		tst, tmem := run(true)
		if !reflect.DeepEqual(st, tst) {
			t.Errorf("%s: traced Stats differ from untraced", w.Name)
		}
		if !reflect.DeepEqual(mem, tmem) {
			t.Errorf("%s: traced final memory differs from untraced", w.Name)
		}
	}
}
