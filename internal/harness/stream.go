package harness

import (
	"context"

	"swapcodes/internal/engine"
	"swapcodes/internal/trace"
)

// Stream says how InjectionPlan.Stream runs a campaign: where its operand
// trace comes from, which shards it skips and who hears of each result.
type Stream struct {
	// Fill fills the plan's empty trace on one pool worker: it runs the
	// traced launches (FillOperands) or decodes a stored copy. Nil means
	// the plan's trace is already final (PlanInjection).
	Fill func(ctx context.Context, tr *trace.OperandTrace) error
	// Skip reports the shards whose results the caller already holds; they
	// are not run and their slots stay zero. Stream asks once per shard,
	// before any runs. Nil runs every shard.
	Skip func(j int) bool
	// Done, if set, takes each shard's result on the worker that ran it,
	// in place of the returned slice, whose slots then stay zero: a caller
	// that keeps only a summary of each shard holds no injection streams.
	// An error stops the campaign.
	Done func(j int, out ShardResult) error
}

// Stream is the one campaign executor. One pool job fills the operand
// trace, one builds the unit set's cone tables (which the first shard of a
// unit would otherwise build while other workers wait on it; only a
// process's first campaign finds them unbuilt), and every other job takes
// the next shard from a ready queue. A unit's shards enter the queue, in
// shard order, as soon as its tuples are final: when the tracer appends
// the unit's last allowed tuple (trace.OperandTrace.OnFill), or when the
// fill ends for a unit that never fills. A unit's tuples never change
// after that, and a shard is a pure function of them, the seed and its
// index, so the result does not depend on the worker count or on when a
// unit was released. With no free pool token the caller's goroutine runs
// the fill, the cone tables and then the shards in release order; the
// queue holds every shard, so nothing waits on itself.
//
// Without Done, the result holds each run shard at its index in Shards.
// On error (cancellation, a failed fill, shard or Done) it holds the whole
// shards that finished, with the first error.
func (p *InjectionPlan) Stream(ctx context.Context, pool *engine.Pool, s Stream) ([]ShardResult, error) {
	runs := make([]bool, len(p.shards))
	n := 0
	for j := range p.shards {
		if runs[j] = s.Skip == nil || !s.Skip(j); runs[j] {
			n++
		}
	}
	ready := make(chan int, n) // one slot per shard to run: a release never blocks the fill
	released := make([]bool, len(p.Units))
	rec := pool.Recorder()
	var pid, tid int64
	if rec != nil {
		pid, tid = rec.Process("harness"), rec.NextTID()
	}
	// release runs on the filling goroutine only.
	release := func(u int) {
		if released[u] {
			return
		}
		released[u] = true
		if p.samples[u] == nil {
			p.sample(u)
		}
		if rec != nil {
			rec.Instant(pid, tid, "release:"+p.Units[u].Name, "driver", rec.Now(),
				map[string]any{"tuples": len(p.tr.Tuples(p.Units[u].Name))})
		}
		for _, j := range p.byUnit[u] {
			if runs[j] {
				ready <- j
			}
		}
	}
	fill := func(ctx context.Context) error {
		if s.Fill != nil {
			index := make(map[string]int, len(p.Units))
			for i, u := range p.Units {
				index[u.Name] = i
			}
			p.tr.OnFill(func(unit string) {
				if i, ok := index[unit]; ok {
					release(i)
				}
			})
			err := s.Fill(ctx, p.tr)
			p.tr.OnFill(nil)
			if err != nil {
				return err
			}
		}
		for u := range p.Units {
			release(u)
		}
		return nil
	}
	out := make([]ShardResult, len(p.shards))
	_, err := engine.Map(ctx, pool, 2+n, func(ctx context.Context, i int) (struct{}, error) {
		switch i {
		case 0:
			return struct{}{}, fill(ctx)
		case 1:
			for _, u := range p.Units {
				if err := ctx.Err(); err != nil {
					return struct{}{}, err
				}
				u.ConeStats() // builds the circuit's cone tables once
			}
			return struct{}{}, nil
		}
		var j int
		select {
		case j = <-ready:
		case <-ctx.Done():
			return struct{}{}, ctx.Err()
		}
		res, err := p.RunShard(ctx, pool, j)
		switch {
		case s.Done == nil:
			out[j] = res
		case err == nil:
			err = s.Done(j, res)
		}
		return struct{}{}, err
	})
	return out, err
}
