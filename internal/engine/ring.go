package engine

import (
	"sync"
	"sync/atomic"

	"gps/internal/fault"
	"gps/internal/graph"
)

// ring is the bounded edge queue between the router and one shard
// goroutine: a power-of-two circular buffer with a lock-free consumer and
// one producer at a time — the router, appending under the engine's
// admission lock.
//
// # Protocol
//
// The consumer owns head (the next unread position) and the producer owns
// tail (the next free position); both only ever grow, and the occupied
// region is [head, tail). The consumer's fast path never takes the mutex:
// it loads tail, processes the contiguous span(s) directly out of the
// buffer — the router copies edges in, so the shard sampler reads them
// in place with no per-message allocation — and publishes the new head.
// The producer appends under mu, which also serializes the sync.Cond
// handshakes:
//
//   - a producer finding the ring full waits on cond (counted in stalls —
//     the router-stall gauge) until the consumer frees space;
//   - the consumer parks on cond when the ring is empty;
//   - a barrier (drainWait) waits on cond until the ring is empty *and*
//     processed — head covers everything appended.
//
// Wakeups: the producer broadcasts after every append (it holds mu already).
// The consumer broadcasts after advancing head only when waiters is
// non-zero — a racy read, but a missed wakeup is always rescued: the
// consumer re-checks waiters on its next iteration, and its park path
// broadcasts under mu before sleeping, by which point any waiter's
// registration (made under mu) is visible. waiters counts producers *and*
// barriers; full-producer and parked-consumer states are mutually
// exclusive (full implies non-empty), so a broadcast never self-deadlocks.
//
// Determinism: the engine appends one batch's runs at a time, so every
// ring receives the accepted batches in one common order, which is what
// keeps sharded sampling a deterministic function of (seed, accepted batch
// order, shard count) regardless of batching or consumer scheduling.
type ring struct {
	buf  []graph.Edge
	mask uint64

	head atomic.Uint64 // consumer position: everything below is processed
	tail atomic.Uint64 // producer position: mutated only under mu

	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32  // producers + barriers registered under mu
	stalls  atomic.Uint64 // cumulative producer full-waits (ring backpressure)
	parks   atomic.Uint64 // cumulative consumer sleeps (ring ran empty)
	wakeups atomic.Uint64 // cumulative consumer broadcasts to waiters
	closed  bool          // guarded by mu
}

func newRing(capacity int) *ring {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("engine: ring capacity must be a positive power of two")
	}
	r := &ring{buf: make([]graph.Edge, capacity), mask: uint64(capacity - 1)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// append copies edges into the ring in order, blocking while the ring is
// full. Runs larger than the capacity are admitted in chunks; the
// per-shard run order is the append order.
func (r *ring) append(edges []graph.Edge) {
	if fault.Enabled() {
		// Before the lock: an injected panic here unwinds the producer
		// (serve's ingest loop recovers and drops the batch) without
		// wedging the ring mutex. Error rules are meaningless at an append
		// that cannot fail, so only latency and panic kinds apply.
		_ = fault.Hit(fault.RingPublish)
	}
	r.mu.Lock()
	for len(edges) > 0 {
		tail := r.tail.Load()
		free := uint64(len(r.buf)) - (tail - r.head.Load())
		if free == 0 {
			r.stalls.Add(1)
			r.waiters.Add(1)
			r.cond.Wait()
			r.waiters.Add(-1)
			continue
		}
		n := uint64(len(edges))
		if n > free {
			n = free
		}
		i := tail & r.mask
		c := copy(r.buf[i:], edges[:n])
		if uint64(c) < n {
			copy(r.buf, edges[c:n])
		}
		r.tail.Store(tail + n)
		edges = edges[n:]
		r.cond.Broadcast() // wake a parked consumer (we hold mu already)
	}
	r.mu.Unlock()
}

// depth returns the number of edges currently queued (appended but not yet
// processed). Lock-free; a racing producer or consumer may move it by the
// time the caller looks, so it is a gauge, not a barrier.
func (r *ring) depth() int {
	// Load tail first: head only grows toward tail, so this order can only
	// under-report, never go negative.
	tail := r.tail.Load()
	head := r.head.Load()
	if tail < head {
		return 0
	}
	return int(tail - head)
}

// drainWait blocks until the ring is empty and fully processed. Callers
// must have excluded producers (the engine holds the admission lock),
// so emptiness is stable once observed.
func (r *ring) drainWait() {
	if r.head.Load() == r.tail.Load() {
		return
	}
	r.mu.Lock()
	r.waiters.Add(1)
	for r.head.Load() != r.tail.Load() {
		r.cond.Wait()
	}
	r.waiters.Add(-1)
	r.mu.Unlock()
}

// skipAll discards every queued edge: head jumps to tail and any waiting
// producers or barriers are woken. account is called with the number of
// edges dropped before the new head is published, under mu, where tail
// cannot move: a barrier released by the jump therefore already sees
// whatever account recorded; it must not block. Only the consumer side
// (the shard supervisor, quarantining a poisonous backlog) may call it —
// head is consumer-owned.
func (r *ring) skipAll(account func(skipped uint64)) {
	r.mu.Lock()
	head, tail := r.head.Load(), r.tail.Load()
	account(tail - head)
	r.head.Store(tail)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// close marks the ring closed and wakes the consumer; the consumer drains
// whatever is still queued and then exits.
func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// consume runs the consumer loop: it calls process on maximal contiguous
// spans of queued edges until the ring is closed and empty. process runs
// with no lock held — the span is owned by the consumer until it publishes
// the new head.
func (r *ring) consume(process func([]graph.Edge)) {
	for {
		head := r.head.Load()
		tail := r.tail.Load()
		if head == tail {
			// Park until there is work or the ring closes. The pre-sleep
			// broadcast rescues any waiter whose registration the fast
			// path's racy waiters check missed.
			r.mu.Lock()
			for {
				if r.waiters.Load() > 0 {
					r.cond.Broadcast()
				}
				tail = r.tail.Load()
				if tail != head || r.closed {
					break
				}
				r.parks.Add(1)
				r.cond.Wait()
			}
			closed := r.closed
			r.mu.Unlock()
			if tail == head {
				if closed {
					return
				}
				continue
			}
		}
		i, j := head&r.mask, tail&r.mask
		if i < j {
			process(r.buf[i:j])
		} else {
			process(r.buf[i:])
			if j > 0 {
				process(r.buf[:j])
			}
		}
		r.head.Store(tail)
		if r.waiters.Load() > 0 {
			r.wakeups.Add(1)
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		}
	}
}
