package server

import (
	"container/heap"
	"errors"
	"sync"
)

// ErrQueueFull is returned by Push when the queue is at capacity; the
// HTTP layer maps it to 429 with a Retry-After hint (admission control:
// better to shed load at the door than to grow an unbounded backlog).
var ErrQueueFull = errors.New("server: job queue full")

// ErrQueueClosed is returned by Push once draining has begun; the HTTP
// layer maps it to 503.
var ErrQueueClosed = errors.New("server: job queue closed")

// queue is a bounded priority queue of jobs: higher Priority pops
// first, FIFO within a priority level (a strictly increasing sequence
// number breaks ties, so equal-priority jobs cannot starve each other).
// Close stops admission but lets Pop drain the remaining items — the
// graceful-shutdown contract.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  jobHeap
	max    int
	seq    int64
	closed bool
}

func newQueue(max int) *queue {
	q := &queue{max: max}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a job or reports why it cannot. bypass lifts the
// admission bound for work the cluster or the journal already
// acknowledged with a 202 (boot-time recovery, lease-expiry migration);
// a closed queue still refuses it, because migrations race drains and
// the coordinator must know to pick another survivor.
func (q *queue) Push(j *Job, bypass bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if !bypass && len(q.items) >= q.max {
		return ErrQueueFull
	}
	q.seq++
	heap.Push(&q.items, queued{job: j, prio: j.Spec.Priority, seq: q.seq})
	q.cond.Signal()
	return nil
}

// Pop blocks until an item is available and returns it; ok is false
// once the queue is closed and fully drained.
func (q *queue) Pop() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	it := heap.Pop(&q.items).(queued)
	return it.job, true
}

// Len reports the current depth (the queue_depth gauge).
func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close stops admission and wakes every blocked Pop.
func (q *queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// queued is one heap entry.
type queued struct {
	job  *Job
	prio int
	seq  int64
}

// jobHeap implements container/heap ordered by (priority desc, seq asc).
type jobHeap []queued

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(queued)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
