package jobs

import (
	"errors"
	"sync"

	"swapcodes/internal/obs"
)

// Queue errors.
var (
	// ErrQueueFull rejects a submission when the global bound is reached —
	// backpressure instead of unbounded memory growth.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQueueClosed rejects submissions during shutdown.
	ErrQueueClosed = errors.New("jobs: queue closed")
)

// queue is a bounded FIFO with per-tenant fairness: each tenant gets its own
// FIFO lane, and pop round-robins across tenants with pending work, so a
// tenant that batch-submits a hundred campaigns delays its own later jobs,
// not everyone else's. Within a tenant, submission order is preserved.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	size   int
	closed bool

	// order lists tenants in first-seen order; rr is the round-robin cursor
	// into it. Tenants stay listed once seen (the set is small and stable),
	// which keeps cursor arithmetic trivial.
	order []string
	lanes map[string][]string
	rr    int

	// Depth telemetry (nil until bind): jobs.queue_depth totals across lanes,
	// jobs.queue_depth{tenant=...} tracks each lane, so per-tenant
	// backpressure is visible on /metrics and /timeseries.
	reg        *obs.Registry
	depthGauge *obs.Gauge
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity, lanes: make(map[string][]string)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// bind mirrors queue depths into reg.
func (q *queue) bind(reg *obs.Registry) {
	if reg == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reg = reg
	q.depthGauge = reg.Gauge("jobs.queue_depth")
}

// tenantLabel names a lane in metrics; the empty tenant is "default".
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// gaugesLocked refreshes the depth gauges. Callers hold q.mu.
func (q *queue) gaugesLocked(tenant string) {
	if q.reg == nil {
		return
	}
	q.depthGauge.Set(int64(q.size))
	q.reg.Gauge(obs.Name("jobs.queue_depth", "tenant", tenantLabel(tenant))).
		Set(int64(len(q.lanes[tenant])))
}

// push enqueues a job id for a tenant.
func (q *queue) push(tenant, id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if q.cap > 0 && q.size >= q.cap {
		return ErrQueueFull
	}
	if _, seen := q.lanes[tenant]; !seen {
		q.order = append(q.order, tenant)
	}
	q.lanes[tenant] = append(q.lanes[tenant], id)
	q.size++
	q.gaugesLocked(tenant)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available (round-robin across tenants, FIFO
// within one) or the queue is closed and drained; ok=false means shut down.
func (q *queue) pop() (id string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.size > 0 {
			for range q.order {
				t := q.order[q.rr%len(q.order)]
				q.rr++
				lane := q.lanes[t]
				if len(lane) == 0 {
					continue
				}
				id := lane[0]
				q.lanes[t] = lane[1:]
				q.size--
				q.gaugesLocked(t)
				return id, true
			}
		}
		if q.closed {
			return "", false
		}
		q.cond.Wait()
	}
}

// close stops the queue at shutdown: pushes fail, and pending work is
// discarded so blocked pops return at once (the WAL re-enqueues the
// discarded jobs on restart).
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	if q.reg != nil {
		for _, t := range q.order {
			q.reg.Gauge(obs.Name("jobs.queue_depth", "tenant", tenantLabel(t))).Set(0)
		}
		q.depthGauge.Set(0)
	}
	q.lanes = make(map[string][]string)
	q.size = 0
	q.cond.Broadcast()
}

// depth reports queued jobs.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
