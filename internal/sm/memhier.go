package sm

// Opt-in memory-hierarchy timing tier (Config.MemModel = "sectored").
//
// The hierarchy replaces the flat LatGMem completion time of global loads
// with one computed by internal/memmodel (sectored L1 + bounded MSHRs,
// banked L2, DRAM bandwidth/row locality) — timing only, never data. The
// integration preserves the §13 determinism contract: during phase A a
// partition merely LOGS each LDG/STG's coalesced sector set into its
// partition-local mlog and marks the destination register with the
// memPending sentinel; the merge barrier then presents the logs to the
// hierarchy in fixed partition order (program order within a partition)
// and finalizes the scoreboard. The hierarchy's mutable state is therefore
// touched only between phases, so a load's timing never depends on the
// order partitions ran in phase A.
//
// Stall attribution: serviceMem records the level that bounded each load
// (regMem, parallel to regClass); a dependence stall on a pending-load
// register is then charged to mem.l1/l2/dram/mshr instead of the generic
// deps component, threading through the scheduler slot's mem verdict, the
// partition's idle-round profile, and chargeIdle. serviceMem is one of the
// slot invalidation points (DESIGN.md §13): a warp that scanned against the
// memPending sentinel in phase A holds a slot wake the concrete fill time
// replaces. The off path keeps regMem all-zero, which makes every new
// branch fall through to the seed behavior.

import (
	"fmt"

	"swapcodes/internal/isa"
	"swapcodes/internal/memmodel"
)

// memPending is the scoreboard sentinel for "written by a hierarchy load
// whose completion time is not known until the merge". It is larger than
// farFuture so a same-round dependent scan parks rather than issues; every
// sentinel is resolved by serviceMem in the same round's barrier, so no
// idle-skip or retire decision ever observes one.
const memPending = farFuture + 1

// memReq is one deferred warp-level memory transaction: the deduplicated
// sector set of an LDG or STG, logged during phase A and serviced at the
// merge. For loads, dst/prev carry the scoreboard finalization state (prev
// is the destination's pre-sentinel ready time, so a WAW hazard against an
// older in-flight producer still merges to the max).
type memReq struct {
	w       *warpState
	dst     isa.Reg
	prev    int64
	store   bool
	nsec    int
	sectors [isa.WarpSize]int32
}

// ParseMemModel returns the one spelling of a Config.MemModel value: "" for
// the flat-latency default, written "" or "off", and "sectored" for the
// hierarchy. Any other value is an error.
func ParseMemModel(name string) (string, error) {
	switch name {
	case "", "off":
		return "", nil
	case "sectored":
		return name, nil
	}
	return "", fmt.Errorf("sm: unknown MemModel %q (valid: off, sectored)", name)
}

// armMemHier validates Config.MemModel and instantiates the hierarchy.
func (m *machine) armMemHier() error {
	model, err := ParseMemModel(m.cfg.MemModel)
	if model == "sectored" {
		m.mh = memmodel.New(memmodel.DefaultConfig())
	}
	return err
}

// logMem coalesces one LDG/STG's active-lane addresses into sectors and
// appends the transaction to the partition's deferred log. Called from exec
// BEFORE the instruction dispatches, because an LDG's destination may alias
// its address register. Addresses repeat exec's arithmetic exactly; an
// out-of-bounds address is logged as-is — exec reports the error right
// after and the launch aborts before the log is ever serviced.
func (p *partition) logMem(w *warpState, in *isa.Instr, mask uint32) {
	mh := p.m.mh
	req := memReq{w: w, dst: isa.RZ, store: in.Op == isa.STG}
	a := w.laneSlice(in.Src[0])
	for l := 0; l < isa.WarpSize; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		s := mh.SectorOf(int32(int(int32(a[l])) + int(in.Imm)))
		dup := false
		for _, x := range req.sectors[:req.nsec] {
			if x == s {
				dup = true
				break
			}
		}
		if !dup {
			req.sectors[req.nsec] = s
			req.nsec++
		}
	}
	p.mlog = append(p.mlog, req)
	p.loggedLoad = in.Op == isa.LDG
}

// serviceMem drains every partition's deferred memory log through the
// hierarchy — the only place hierarchy state advances. Runs on the barrier
// thread right after the store commits, before CTA events and retirement,
// so a warp that issued its load and EXITed in the same round retires with
// a concrete scoreboard. Partition order then program order fixes the
// service order; all of a round's transactions share the round's cycle as
// their issue time.
func (m *machine) serviceMem() {
	for _, p := range m.parts {
		if len(p.mlog) == 0 {
			continue
		}
		for i := range p.mlog {
			req := &p.mlog[i]
			if req.store {
				m.mh.AccessStore(m.cycle, req.sectors[:req.nsec])
				continue
			}
			fill, lvl := m.mh.AccessLoad(m.cycle, req.sectors[:req.nsec])
			if req.dst == isa.RZ {
				continue // discarded result: traffic counted, nothing to wake
			}
			w := req.w
			base := w.regReady[req.dst]
			if base == memPending {
				base = req.prev
			}
			if fill > base {
				base = fill
			}
			w.regReady[req.dst] = base
			w.regMem[req.dst] = uint8(lvl)
			// The issuing warp's slot may hold a wake against the sentinel
			// from this same round; the concrete time invalidates it.
			p.invalidate(w.slot)
		}
		p.mlog = p.mlog[:0]
	}
}
