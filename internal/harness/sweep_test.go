package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// sweepSubset is a small grid for the schedule tests: four workloads, of
// which mm refuses inter-thread duplication, under one scheme that runs
// everywhere and one that does not.
func sweepSubset(t *testing.T) ([]*workloads.Workload, []compiler.Scheme) {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"mm", "bfs", "gauss", "lavaMD"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws, []compiler.Scheme{compiler.SwapECC, compiler.InterThread}
}

// rowByRow is the sweep computed one row at a time, each row's cells in
// order, on the calling goroutine: the schedule the sweep had before it
// ran cell by cell.
func rowByRow(t *testing.T, ws []*workloads.Workload, schemes []compiler.Scheme, verify bool) *PerfResult {
	t.Helper()
	res := &PerfResult{Schemes: schemes}
	for _, w := range ws {
		row := &PerfRow{Workload: w.Name,
			Stats: make(map[compiler.Scheme]*sm.Stats),
			Errs:  make(map[compiler.Scheme]string)}
		for _, s := range append([]compiler.Scheme{compiler.Baseline}, schemes...) {
			out, err := launchCell(context.Background(), w, s, verify, Options{}, &recorders{})
			switch {
			case err != nil:
				t.Fatal(err)
			case out.Refused != "":
				row.Errs[s] = out.Refused
			case s == compiler.Baseline:
				row.Baseline = out.Stats
			default:
				row.Stats[s] = out.Stats
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// TestCellSweepEqualsRowSweep: the cell-grain sweep returns, at one and two
// workers and with the flight recorder armed or not, exactly the rows a
// row-by-row sweep computes; armed on two workers it makes at most two
// recorders, one per launch running at once.
func TestCellSweepEqualsRowSweep(t *testing.T) {
	ws, schemes := sweepSubset(t)
	want := rowByRow(t, ws, schemes, true)
	if want.Rows[0].Errs[compiler.InterThread] == "" {
		t.Fatal("mm ran inter-thread duplication; the subset no longer covers a refused cell")
	}
	for _, workers := range []int{1, 2} {
		for _, armed := range []bool{false, true} {
			frs := &recorders{}
			got, err := runRows(context.Background(), engine.New(workers), ws, schemes, true,
				Options{FlightRecord: armed}, frs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d workers, armed %v: the cell-grain sweep differs from the row-by-row one", workers, armed)
			}
			// Every launch succeeded, so every recorder made is back on
			// the free list.
			switch made := len(frs.free); {
			case !armed && made != 0:
				t.Errorf("%d workers: a disarmed sweep made %d recorders", workers, made)
			case armed && (made < 1 || made > workers):
				t.Errorf("%d workers: an armed sweep made %d recorders, want 1 to %d", workers, made, workers)
			}
		}
	}
}

// TestFailedLaunchKeepsItsRecorder: the recorder of a failed launch leaves
// with its error and never goes back on the free list.
func TestFailedLaunchKeepsItsRecorder(t *testing.T) {
	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	w.Verify = func(*sm.GPU) error { return boom }
	frs := &recorders{}
	_, err = runRows(context.Background(), engine.New(1), []*workloads.Workload{w}, nil, true,
		Options{FlightRecord: true}, frs)
	var fe *FlightError
	if !errors.As(err, &fe) || !errors.Is(err, boom) || len(fe.Bundle) == 0 {
		t.Fatalf("failed verification = %v, want a *FlightError with a bundle", err)
	}
	if len(frs.free) != 0 {
		t.Errorf("the failed launch's recorder went back on the free list")
	}
}

// cancelTier is a cell tier that cancels a context once it has stored
// after cells.
type cancelTier struct {
	*countingTier
	after  int
	cancel context.CancelFunc
}

func (t *cancelTier) Put(item, key string, val []byte) error {
	err := t.countingTier.Put(item, key, val)
	t.mu.Lock()
	n := 0
	for _, c := range t.puts {
		n += c
	}
	t.mu.Unlock()
	if n == t.after {
		t.cancel()
	}
	return err
}

// TestCancelledSweepKeepsWholeRows: a sweep cancelled after its baseline
// column and the first cell of the next returns, with the context's error,
// only the rows whose cells all completed. On one worker, which runs the
// cells column by column, that is the first row alone; on two, whatever
// rows it returns are whole.
func TestCancelledSweepKeepsWholeRows(t *testing.T) {
	ws, schemes := sweepSubset(t)
	want := rowByRow(t, ws, schemes[:1], false)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		tier := &cancelTier{countingTier: newCountingTier(), after: len(ws) + 1, cancel: cancel}
		got, err := runRows(ctx, engine.New(workers), ws, schemes[:1], false,
			Options{Cells: NewStore(tier)}, &recorders{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: err = %v, want cancelled", workers, err)
		}
		if workers == 1 && len(got.Rows) != 1 {
			t.Errorf("1 worker: %d rows, want the first alone", len(got.Rows))
		}
		next := 0
		for _, row := range got.Rows {
			for next < len(want.Rows) && want.Rows[next].Workload != row.Workload {
				next++
			}
			if next == len(want.Rows) || !reflect.DeepEqual(row, want.Rows[next]) {
				t.Errorf("%d workers: row %s is not a whole row in workload order", workers, row.Workload)
			}
		}
	}
}
