package core

import (
	"runtime"
	"sync"

	"gps/internal/graph"
)

// estimateWorkers returns the worker count for a parallel estimator scan
// over n items: GOMAXPROCS capped at n, and at least 1 so empty reservoirs
// still produce a (zero) partial.
func estimateWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor splits [0, n) into one contiguous chunk per worker and runs
// fn(w, lo, hi) for each non-empty chunk, returning when all complete — the
// paper's "parallel for" loop over reservoir slots, shared by every
// post-stream estimator. Chunk boundaries depend only on (n, workers), so a
// reduction that combines per-worker partials in worker order is a
// deterministic function of the reservoir for a fixed GOMAXPROCS. With one
// worker the chunk runs on the calling goroutine.
func parallelFor(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// slotProbs builds the slot-indexed inclusion-probability table of the
// estimation fast path: probs[slot] = q = min{1, w/z*} for every sampled
// edge, indexed by the edge's heap arena slot. q depends only on the stored
// weight and the current threshold, so one O(m) pass replaces every
// per-enumeration hash probe of Algorithm 2's inner loops with a contiguous
// array read. Entries at freed arena slots are left 0 and are never read:
// adjacency slot runs list live slots only. The table is immutable and may
// be shared by any number of estimator workers; it is invalidated by the
// next Process.
func (s *Sampler) slotProbs() []float64 {
	probs := make([]float64, s.res.heap.ArenaLen())
	for i, n := 0, s.res.Len(); i < n; i++ {
		slot := s.res.heap.SlotAt(i)
		probs[slot] = s.probForWeight(s.res.heap.BySlot(slot).Weight)
	}
	return probs
}

// slotEnds builds the slot-indexed endpoint table of the estimation fast
// path: ends[slot] holds the adjacency dense ids of the U and V endpoints
// of the edge stored at slot, filled by one pass over the adjacency runs
// (graph.Adjacency.SlotEnds). The per-edge scans then read both endpoint
// runs by dense id instead of looking each endpoint up in the node table.
// Like slotProbs the table is transient, shareable across workers, and
// invalidated by the next Process; freed slots are left zero and never
// read.
func (s *Sampler) slotEnds() [][2]int32 {
	ends := make([][2]int32, s.res.heap.ArenaLen())
	s.res.adj.SlotEnds(ends)
	return ends
}

// endpointRuns returns the endpoints of the edge stored at slot, U then V,
// with their neighbor and slot runs, read by dense id from the endpoint
// table.
func (s *Sampler) endpointRuns(slot int32, ends [][2]int32) (u graph.NodeID, nu []graph.NodeID, su []int32,
	v graph.NodeID, nv []graph.NodeID, sv []int32) {
	e := ends[slot]
	u, nu, su = s.res.adj.RunAt(int(e[0]))
	v, nv, sv = s.res.adj.RunAt(int(e[1]))
	return
}
