package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gps/internal/graph"
)

// Chunk sizes of the post-stream scans. A chunk's bounds depend on the
// sample alone, never on the core count, so every estimator below returns
// the same bits on any GOMAXPROCS: each chunk writes its own partial, and
// the partials are summed in chunk order.
const (
	// ownerChunk is the number of dense ids per chunk of the scans that
	// walk the adjacency runs. Algorithm 2's work per owner is one pass
	// over its run plus, for each edge it takes up, a scan of the other
	// endpoint's shorter run. The hubs carry most of it and sit together
	// at low ids, so chunks stay small enough to balance.
	ownerChunk = 64
	// edgeChunk is the number of heap positions per chunk of the scans that
	// walk the sampled edges one by one.
	edgeChunk = 1024
)

// chunkCount returns the number of chunks forChunks cuts [0, n) into.
func chunkCount(n, size int) int { return (n + size - 1) / size }

// forChunks is the paper's "parallel for" over reservoir items (§4): it cuts
// [0, n) into chunkCount(n, size) chunks of size items (the last may be
// shorter) and returns when every chunk has run. Up to GOMAXPROCS workers,
// the calling goroutine among them, claim chunk indices from one atomic
// counter. Each worker calls newWorker once for its chunk function, so
// per-worker scratch lives in that closure, then calls it as fn(c, lo, hi)
// for every chunk c = [lo, hi) it claims.
func forChunks(n, size int, newWorker func() func(c, lo, hi int)) {
	chunks := chunkCount(n, size)
	if chunks == 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		fn := newWorker()
		for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
			fn(c, c*size, min((c+1)*size, n))
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), chunks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// slotInvProbs builds the slot-indexed table every post-stream estimator
// reads its probabilities from: inv[slot] = 1/q(k), q = min{1, w/z*}, for
// the sampled edge k stored at that heap arena slot. One O(m) pass does
// the only division per edge, so no estimator loop divides, and the
// Horvitz-Thompson weights are products of table entries. Entries at freed
// arena slots are left 0 and are never read: adjacency slot runs list live
// slots only. The table is immutable, may be shared by any number of
// estimator workers, and is invalidated by the next Process.
//
// byMark is the same table behind one leading entry, 0: byMark[slot+1] is
// inv[slot], and byMark[0] stands for no slot. Algorithm 2's marks hold a
// slot plus one, 0 when unmarked, and index byMark directly.
func (s *Sampler) slotInvProbs() (inv, byMark []float64) {
	byMark = make([]float64, s.res.heap.ArenaLen()+1)
	inv = byMark[1:]
	for i, n := 0, s.res.Len(); i < n; i++ {
		slot := s.res.heap.SlotAt(i)
		inv[slot] = 1 / s.probForWeight(s.res.heap.BySlot(slot).Weight)
	}
	return inv, byMark
}

// slotEnds builds the slot-indexed endpoint table of the estimation fast
// path: ends[slot] holds the adjacency dense ids of the U and V endpoints
// of the edge stored at slot, filled by one pass over the adjacency runs
// (graph.Adjacency.SlotEnds). The scans then reach the run of an edge's
// other endpoint by dense id instead of looking it up in the node table.
// Like slotInvProbs the table is transient, shareable across workers, and
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
