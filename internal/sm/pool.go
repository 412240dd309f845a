package sm

import (
	"sync"

	"swapcodes/internal/isa"
)

// Per-warp and per-CTA scratch (register files, scoreboards, SIMT stacks,
// shared memory) is recycled across CTAs and launches through sync.Pools:
// a big grid otherwise allocates tens of kilobytes per CTA wave, and the
// allocation+zeroing churn shows up directly in launch wall time. Gets and
// puts happen at CTA launch and retire, outside phase A.

var warpPool = sync.Pool{New: func() any { return new(warpState) }}
var ctaPool = sync.Pool{New: func() any { return new(ctaState) }}

// getWarp returns a warpState with zeroed architectural and scoreboard
// state sized for numRegs registers. Callers fill in identity fields and
// the SIMT stack.
func getWarp(numRegs int) *warpState {
	w := warpPool.Get().(*warpState)
	nr := numRegs * isa.WarpSize
	if cap(w.regs) >= nr {
		w.regs = w.regs[:nr]
		clear(w.regs)
	} else {
		w.regs = make([]uint32, nr)
	}
	sb := numRegs + 2
	if cap(w.regReady) >= sb {
		w.regReady = w.regReady[:sb]
		clear(w.regReady)
	} else {
		w.regReady = make([]int64, sb)
	}
	if cap(w.regClass) >= sb {
		w.regClass = w.regClass[:sb]
		clear(w.regClass)
	} else {
		w.regClass = make([]uint8, sb)
	}
	if cap(w.regMem) >= sb {
		w.regMem = w.regMem[:sb]
		clear(w.regMem)
	} else {
		w.regMem = make([]uint8, sb)
	}
	w.preds = [8]uint32{}
	w.predReady = [8]int64{}
	w.predClass = [8]uint8{}
	w.atBarrier = false
	w.done = false
	w.atomHold = false
	w.rf = nil
	return w
}

// getCTA returns a ctaState with zeroed shared memory of sharedWords words.
func getCTA(id, sharedWords int) *ctaState {
	c := ctaPool.Get().(*ctaState)
	c.id = id
	if cap(c.shared) >= sharedWords {
		c.shared = c.shared[:sharedWords]
		clear(c.shared)
	} else {
		c.shared = make([]uint32, sharedWords)
	}
	c.warps = c.warps[:0]
	c.liveWarps = 0
	c.arrived = 0
	return c
}

// putCTA recycles a completed CTA and all of its warps. The caller
// guarantees nothing references them anymore (RetireHook consumers copy).
func putCTA(c *ctaState) {
	for _, w := range c.warps {
		w.cta = nil
		w.rf = nil
		warpPool.Put(w)
	}
	c.warps = c.warps[:0]
	ctaPool.Put(c)
}
