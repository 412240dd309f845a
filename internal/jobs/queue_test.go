package jobs

import (
	"errors"
	"testing"
)

func TestQueueTenantFairness(t *testing.T) {
	q := newQueue(16)
	// Tenant a batch-submits ahead of b and c; the pop order must interleave
	// tenants round-robin instead of draining a's backlog first.
	for _, id := range []string{"a1", "a2", "a3"} {
		if err := q.push("a", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push("b", "b1"); err != nil {
		t.Fatal(err)
	}
	if err := q.push("c", "c1"); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "c1", "a2", "a3"}
	for i, w := range want {
		id, ok := q.pop()
		if !ok || id != w {
			t.Fatalf("pop %d = %q, %v; want %q", i, id, ok, w)
		}
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("depth after drain = %d", d)
	}
}

func TestQueueFIFOWithinTenant(t *testing.T) {
	q := newQueue(0) // unbounded
	for _, id := range []string{"x1", "x2", "x3"} {
		if err := q.push("x", id); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []string{"x1", "x2", "x3"} {
		if id, ok := q.pop(); !ok || id != w {
			t.Fatalf("pop = %q, %v; want %q", id, ok, w)
		}
	}
}

func TestQueueBound(t *testing.T) {
	q := newQueue(2)
	if err := q.push("t", "1"); err != nil {
		t.Fatal(err)
	}
	if err := q.push("t", "2"); err != nil {
		t.Fatal(err)
	}
	if err := q.push("t", "3"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push over cap = %v; want ErrQueueFull", err)
	}
	// Popping frees capacity.
	if _, ok := q.pop(); !ok {
		t.Fatal("pop failed")
	}
	if err := q.push("t", "3"); err != nil {
		t.Fatalf("push after pop = %v", err)
	}
}

// TestQueueClose: a closed queue refuses pushes, releases a blocked pop
// and discards pending work.
func TestQueueClose(t *testing.T) {
	q := newQueue(4)
	if err := q.push("t", "1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		q.pop() // consumes the one item
		_, ok := q.pop()
		done <- ok
	}()
	q.close()
	if err := q.push("t", "2"); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close = %v; want ErrQueueClosed", err)
	}
	if ok := <-done; ok {
		t.Fatal("blocked pop returned ok after close")
	}

	q2 := newQueue(4)
	if err := q2.push("t", "1"); err != nil {
		t.Fatal(err)
	}
	q2.close()
	if _, ok := q2.pop(); ok || q2.depth() != 0 {
		t.Fatalf("pop after close reported ok, depth %d; want pending work discarded", q2.depth())
	}
}
