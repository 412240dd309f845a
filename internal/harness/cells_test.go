package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swapcodes/internal/compiler"
	"swapcodes/internal/ecc"
	"swapcodes/internal/engine"
	"swapcodes/internal/obs"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// countingTier is a CellTier that counts the Puts under each key.
type countingTier struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts map[string]int
}

func newCountingTier() *countingTier {
	return &countingTier{m: map[string][]byte{}, puts: map[string]int{}}
}

func (t *countingTier) Get(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.m[key]
	return b, ok
}

func (t *countingTier) Put(key string, val []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[key] = val
	t.puts[key]++
	return nil
}

// TestSharedStoreLaunchesEachCellOnce runs Figures 12, 14, 15 and 16 and
// the headline concurrently through one store, as `experiments -exp all`
// does: together they ask for 365 cells, of which 150 are distinct, and
// each distinct cell must be launched, and stored, exactly once.
func TestSharedStoreLaunchesEachCellOnce(t *testing.T) {
	tier := newCountingTier()
	cells := NewCellStore(tier)
	opt := Options{Cells: cells}
	pool := engine.New(4)
	sweep := func(schemes []compiler.Scheme) engine.Job {
		return engine.Job{Name: "sweep", Run: func(ctx context.Context) error {
			_, err := RunPerfCtxOpts(ctx, pool, schemes, true, opt)
			return err
		}}
	}
	err := pool.Run(context.Background(), []engine.Job{
		{Name: "headline", Run: func(ctx context.Context) error {
			// The campaign launches no cell; its tallies do not matter here.
			noSDC := func(ecc.Code) (frac, hi float64) { return 0, 1 }
			_, err := HeadlineCtx(ctx, pool, noSDC, opt)
			return err
		}},
		{Name: "fig14", Run: func(ctx context.Context) error {
			_, err := RunPower(ctx, pool, opt)
			return err
		}},
		sweep(Fig12Schemes()), sweep(Fig15Schemes()), sweep(Fig16Schemes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline plus Figure 12's four, Figure 15's two, and Figure 16's
	// three new schemes (its fourth, Pre MAD, is Figure 12's). Figure 14's
	// ten cells are Figure 12's on mm and snap.
	const distinct = 15 * (1 + 4 + 2 + 3)
	if len(tier.puts) != distinct {
		t.Errorf("%d distinct cells stored, want %d", len(tier.puts), distinct)
	}
	for key, n := range tier.puts {
		if n != 1 {
			t.Errorf("cell %s stored %d times", key[:12], n)
		}
	}
}

// TestPowerServedFromStore: Figure 14 reads the verified Figure 12 cells of
// mm and snap. After a Figure 12 sweep through a store, RunPower through
// the same store launches and stores nothing, and renders what RunPower
// with no store renders; on a fresh store it launches its 10 cells, as
// `experiments -exp fig14` alone does.
func TestPowerServedFromStore(t *testing.T) {
	ctx := context.Background()
	pool := engine.New(2)
	rec := obs.NewRecorder()
	pool.SetObs(rec)
	launched := func() int {
		n := 0
		for _, e := range rec.Events() {
			if strings.HasPrefix(e.Name, "perf:") {
				n += e.Args["launched"].(int)
			}
		}
		return n
	}
	want, err := RunPower(ctx, engine.New(2), Options{})
	if err != nil {
		t.Fatal(err)
	}

	fresh := newCountingTier()
	if _, err := RunPower(ctx, pool, Options{Cells: NewCellStore(fresh)}); err != nil {
		t.Fatal(err)
	}
	if n := launched(); n != 10 || len(fresh.puts) != 10 {
		t.Errorf("RunPower on a fresh store launched %d cells and stored %d, want 10 and 10", n, len(fresh.puts))
	}

	tier := newCountingTier()
	opt := Options{Cells: NewCellStore(tier)}
	if _, err := RunPerfCtxOpts(ctx, engine.New(2), Fig12Schemes(), true, opt); err != nil {
		t.Fatal(err)
	}
	stored, before := len(tier.puts), launched()
	got, err := RunPower(ctx, pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := launched() - before; n != 0 || len(tier.puts) != stored {
		t.Errorf("RunPower after the Figure 12 sweep launched %d cells and stored %d, want 0 and 0", n, len(tier.puts)-stored)
	}
	if got.Render() != want.Render() {
		t.Errorf("Figure 14 from stored cells:\n%s\nwithout a store:\n%s", got.Render(), want.Render())
	}
}

// TestStoredSweepEqualsLaunched: a sweep assembled entirely from stored
// cells renders exactly what the launching sweep rendered, on the flat and
// on the sectored memory model.
func TestStoredSweepEqualsLaunched(t *testing.T) {
	ctx := context.Background()
	schemes := []compiler.Scheme{compiler.SwapECC, compiler.InterThread}
	for _, mem := range []string{"", "sectored"} {
		tier := newCountingTier()
		opt := Options{MemModel: mem, Cells: NewCellStore(tier)}
		cold, err := RunPerfCtxOpts(ctx, engine.New(2), schemes, false, opt)
		if err != nil {
			t.Fatal(err)
		}
		stored := len(tier.puts)
		warm, err := RunPerfCtxOpts(ctx, engine.New(2), schemes, false, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stored != 45 || len(tier.puts) != stored {
			t.Errorf("mem %q: %d cells stored by the cold sweep, %d more by the stored one", mem, stored, len(tier.puts)-stored)
		}
		if cold.Render("t") != warm.Render("t") {
			t.Errorf("mem %q: stored sweep renders differently", mem)
		}
		if CPIStacks(cold).CSV() != CPIStacks(warm).CSV() {
			t.Errorf("mem %q: stored sweep's CPI stacks differ", mem)
		}
		if !reflect.DeepEqual(cold.Rows[0].Errs, warm.Rows[0].Errs) || len(warm.Rows[13].Errs) != 1 {
			t.Errorf("mem %q: compiler refusals not kept: %v", mem, warm.Rows[13].Errs)
		}
	}
}

// TestMemModelOffIsFlat: "off" is the flat-latency default spelled out, so
// a sweep asking for it after a flat sweep through the same store launches
// and stores no cell.
func TestMemModelOffIsFlat(t *testing.T) {
	ctx := context.Background()
	tier := newCountingTier()
	cells := NewCellStore(tier)
	schemes := []compiler.Scheme{compiler.SwapECC}
	if _, err := RunPerfCtxOpts(ctx, engine.New(2), schemes, false, Options{Cells: cells}); err != nil {
		t.Fatal(err)
	}
	stored := len(tier.puts)
	if _, err := RunPerfCtxOpts(ctx, engine.New(2), schemes, false, Options{MemModel: "off", Cells: cells}); err != nil {
		t.Fatal(err)
	}
	if n := len(tier.puts) - stored; stored == 0 || n != 0 {
		t.Errorf("the flat sweep stored %d cells, the \"off\" sweep after it %d more, want none", stored, n)
	}
}

// TestCellKeyCoversInputs is the guard against serving a stale cell: the
// workload, the scheme, every sm.Config field, verification and the format
// version each change the key, and the reflection walk fails on a Config
// field of a kind it cannot mutate, so a new field is never left out
// unnoticed.
func TestCellKeyCoversInputs(t *testing.T) {
	cfg := sm.DefaultConfig()
	base := CellKey("lavaMD", compiler.SwapECC, cfg, true)
	if base != cellKey(cellFormat, "lavaMD", compiler.SwapECC, cfg, true) {
		t.Fatal("CellKey does not use the current format")
	}
	for name, key := range map[string]string{
		"workload": CellKey("bfs", compiler.SwapECC, cfg, true),
		"scheme":   CellKey("lavaMD", compiler.SWDup, cfg, true),
		"verify":   CellKey("lavaMD", compiler.SwapECC, cfg, false),
		"format":   cellKey("cell/v1", "lavaMD", compiler.SwapECC, cfg, true),
	} {
		if key == base {
			t.Errorf("changing the %s keeps the key", name)
		}
	}
	rt := reflect.TypeOf(cfg)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		mut := cfg
		v := reflect.ValueOf(&mut).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Errorf("sm.Config.%s has kind %s: teach this test to mutate it", f.Name, f.Type.Kind())
			continue
		}
		if CellKey("lavaMD", compiler.SwapECC, mut, true) == base {
			t.Errorf("changing sm.Config.%s keeps the key", f.Name)
		}
	}
}

// TestFailedCellsStoreNothing: a failed launch, a failed verification and
// an undecodable entry leave nothing behind that a later sweep would serve.
func TestFailedCellsStoreNothing(t *testing.T) {
	ctx := context.Background()
	tier := newCountingTier()
	cells := NewCellStore(tier)

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		launched := false
		fail := func(context.Context) (cellOutcome, error) { launched = true; return cellOutcome{}, boom }
		if _, ran, err := cells.resolve(ctx, "k1", fail); !errors.Is(err, boom) || !ran || !launched {
			t.Fatalf("failed launch %d: ran %v, launched %v, err %v", i, ran, launched, err)
		}
	}
	if len(tier.puts) != 0 {
		t.Fatalf("failed launches stored %d cells", len(tier.puts))
	}

	w, err := workloads.ByName("lavaMD")
	if err != nil {
		t.Fatal(err)
	}
	w.Verify = func(*sm.GPU) error { return boom }
	if _, _, err := runWorkload(ctx, w, []compiler.Scheme{compiler.SwapECC}, true, Options{Cells: cells}); !errors.Is(err, boom) {
		t.Fatalf("failed verification = %v", err)
	}
	if len(tier.puts) != 0 {
		t.Fatalf("failed verification stored %d cells", len(tier.puts))
	}

	key := CellKey(w.Name, compiler.Baseline, sm.DefaultConfig(), false)
	tier.m[key] = []byte(`{"stats":`)
	row, work, err := runWorkload(ctx, w, nil, false, Options{Cells: cells})
	if err != nil || work.launched != 1 || row.Baseline == nil {
		t.Fatalf("undecodable cell: launched %d, err %v", work.launched, err)
	}
	if _, err := decodeCell(tier.m[key]); err != nil || tier.puts[key] != 1 {
		t.Fatalf("undecodable cell not overwritten: %v (%d puts)", err, tier.puts[key])
	}
}

// TestWaiterRetriesAfterOwnerFails: a sweep waiting on a cell whose owner
// fails (here: the owner's sweep is cancelled) launches the cell itself.
// Had the waiter arrived after the owner gave up, it would have launched
// the cell as owner; either way the outcome is the same.
func TestWaiterRetriesAfterOwnerFails(t *testing.T) {
	cells := NewCellStore(nil)
	var launches atomic.Int64
	ownerIn, release := make(chan struct{}), make(chan struct{})
	ownerCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := cells.resolve(ownerCtx, "k", func(ctx context.Context) (cellOutcome, error) {
			launches.Add(1)
			close(ownerIn)
			<-release
			return cellOutcome{}, ctx.Err()
		})
		done <- err
	}()
	<-ownerIn
	waiter := make(chan error, 1)
	go func() {
		out, ran, err := cells.resolve(context.Background(), "k", func(context.Context) (cellOutcome, error) {
			launches.Add(1)
			return cellOutcome{Refused: "ok"}, nil
		})
		if err == nil && (!ran || out.Refused != "ok") {
			err = errors.New("waiter did not launch the cell itself")
		}
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block on the owner's flight
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner = %v, want cancelled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatal(err)
	}
	if n := launches.Load(); n != 2 {
		t.Fatalf("launched %d, want 2", n)
	}
}
