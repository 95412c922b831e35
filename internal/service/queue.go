package service

import (
	"errors"
	"sync"
)

// ErrTenantQuota rejects a submission whose tenant already has its quota
// of queued jobs; the HTTP layer answers 429 with Retry-After, like a full
// queue, but scoped to the offending tenant.
var ErrTenantQuota = errors.New("service: tenant queue quota exceeded")

// fairQueue replaces the manager's single FIFO with per-tenant FIFOs
// served round-robin: each active tenant dequeues one job when its turn
// comes, then the turn passes on. A tenant flooding the queue therefore
// cannot push another tenant's job more than one cycle back, so waits
// stay bounded by the number of active tenants, not by the flooder's
// backlog.
//
// The total capacity bound is shared (like the old FIFO channel) and an
// optional per-tenant quota rejects a single tenant monopolizing the
// queue's admission as well as its service order. A tenant's lane exists
// only while it has queued jobs, so the client-chosen tenant names that
// pass through leave nothing behind.
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	capacity int
	quota    int // per-tenant queued-job cap; 0 = unbounded

	tenants map[string]*tenantFIFO // lanes with queued jobs
	ring    []*tenantFIFO          // the same lanes in arrival order
	next    int                    // ring index holding the turn
	size    int                    // total queued jobs
	closed  bool
}

// tenantFIFO is one tenant's pending jobs.
type tenantFIFO struct {
	name string
	jobs []*job
}

func newFairQueue(capacity, quota int) *fairQueue {
	q := &fairQueue{
		capacity: capacity,
		quota:    quota,
		tenants:  make(map[string]*tenantFIFO),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues j for its tenant. It fails with ErrQueueFull when the
// shared capacity is exhausted, ErrTenantQuota when the tenant is over its
// own cap, and ErrShuttingDown after close.
func (q *fairQueue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShuttingDown
	}
	if q.size >= q.capacity {
		return ErrQueueFull
	}
	t := q.tenants[j.tenant]
	if q.quota > 0 && t != nil && len(t.jobs) >= q.quota {
		return ErrTenantQuota
	}
	if t == nil {
		t = &tenantFIFO{name: j.tenant}
		q.tenants[j.tenant] = t
		q.ring = append(q.ring, t)
	}
	t.jobs = append(t.jobs, j)
	q.size++
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available or the queue is closed and empty;
// the second return mirrors a channel receive. After close the remaining
// backlog still drains in fair order, so shutdown keeps the scheduling
// contract.
func (q *fairQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.popLocked(); j != nil {
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// popLocked serves the lane holding the turn; q.mu must be held. Returns
// nil when empty.
func (q *fairQueue) popLocked() *job {
	if q.size == 0 {
		return nil
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
	t := q.ring[q.next]
	j := t.jobs[0]
	t.jobs[0] = nil // release the reference for GC
	t.jobs = t.jobs[1:]
	q.size--
	if len(t.jobs) == 0 {
		// Drained lane: retire it, leaving q.next on the lane that slid
		// into its slot.
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		delete(q.tenants, t.name)
	} else {
		q.next++
	}
	return j
}

// len reports the total queued jobs.
func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// close stops admissions and wakes every blocked pop; queued jobs still
// drain.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
