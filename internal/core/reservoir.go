package core

import (
	"gps/internal/graph"
	"gps/internal/order"
)

// Reservoir is the sampled subgraph K̂: the priority heap of retained edges
// plus a dynamic adjacency index over their endpoints. Weight functions and
// estimators query it for the topology of the sampled graph (Γ̂(v),
// |Γ̂(v1)∩Γ̂(v2)|, stored edge weights); only the Sampler mutates it.
type Reservoir struct {
	heap *order.Heap
	adj  *graph.Adjacency
}

func newReservoir(capacity int) *Reservoir {
	return &Reservoir{
		heap: order.NewHeap(capacity),
		adj:  graph.NewAdjacency(),
	}
}

// Len returns the number of sampled edges |K̂|.
func (r *Reservoir) Len() int { return r.heap.Len() }

// NumNodes returns the number of distinct endpoints |V̂| of sampled edges.
func (r *Reservoir) NumNodes() int { return r.adj.NumNodes() }

// Contains reports whether edge e is currently sampled.
func (r *Reservoir) Contains(e graph.Edge) bool { return r.heap.Contains(e.Key()) }

// MinPriority returns the lowest priority among sampled edges — the
// eviction candidate's priority, which the sampler's fast path compares
// against arriving priorities. It panics on an empty reservoir.
func (r *Reservoir) MinPriority() float64 { return r.heap.MinPriority() }

// Weight returns the sampling weight w(k) stored for edge e at its arrival,
// with ok=false when e is not sampled.
func (r *Reservoir) Weight(e graph.Edge) (w float64, ok bool) {
	ent := r.heap.Get(e.Key())
	if ent == nil {
		return 0, false
	}
	return ent.Weight, true
}

// Degree returns deg_K̂(v), the degree of v in the sampled subgraph.
func (r *Reservoir) Degree(v graph.NodeID) int { return r.adj.Degree(v) }

// Neighbors calls fn for each sampled neighbor of v until fn returns false.
func (r *Reservoir) Neighbors(v graph.NodeID, fn func(graph.NodeID) bool) {
	r.adj.Neighbors(v, fn)
}

// CommonNeighbors calls fn for each node adjacent to both u and v in the
// sampled subgraph, iterating the smaller neighborhood.
func (r *Reservoir) CommonNeighbors(u, v graph.NodeID, fn func(graph.NodeID) bool) {
	r.adj.CommonNeighbors(u, v, fn)
}

// CountCommonNeighbors returns |Γ̂(u) ∩ Γ̂(v)|: the number of triangles the
// edge {u,v} completes (or would complete) in the sampled subgraph. This is
// the quantity the paper's triangle-focused weight function is built from.
func (r *Reservoir) CountCommonNeighbors(u, v graph.NodeID) int {
	return r.adj.CountCommonNeighbors(u, v)
}

// ForEachEdge calls fn for each sampled edge until fn returns false.
func (r *Reservoir) ForEachEdge(fn func(graph.Edge) bool) {
	r.adj.ForEachEdge(fn)
}

// Edges returns a snapshot slice of the sampled edges in unspecified order.
func (r *Reservoir) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, r.Len())
	for i := 0; i < r.heap.Len(); i++ {
		out = append(out, r.heap.At(i).Edge)
	}
	return out
}

// clone returns a deep copy of the reservoir: heap and adjacency index are
// duplicated so the copy and the original evolve independently.
func (r *Reservoir) clone() *Reservoir { return r.cloneInto(nil) }

// cloneInto is clone writing over dst, reusing dst's backing arrays; dst
// must be a retired reservoir no longer referenced anywhere (nil allocates).
func (r *Reservoir) cloneInto(dst *Reservoir) *Reservoir {
	if dst == nil {
		dst = &Reservoir{}
	}
	dst.heap = r.heap.CloneInto(dst.heap)
	dst.adj = r.adj.CloneInto(dst.adj)
	return dst
}

// entry returns the heap record of edge e, or nil when not sampled. The
// pointer is invalidated by the next insert/evict. It is the hash-probing
// lookup the slot-indexed estimation path exists to avoid; live uses are
// the public Weight/Contains queries and the lookup-based reference
// estimators the equality tests pin the fast path against.
func (r *Reservoir) entry(e graph.Edge) *order.Entry { return r.heap.Get(e.Key()) }

// entryAt returns the heap record stored at an arena slot obtained from a
// neighbor run; same invalidation rule as entry.
func (r *Reservoir) entryAt(slot int32) *order.Entry { return r.heap.BySlot(slot) }

// slotOf resolves edge e to its heap arena slot via the adjacency slot
// runs (-1 when e is not sampled) — an intern lookup plus a binary search,
// no probe of the per-edge hash table.
func (r *Reservoir) slotOf(e graph.Edge) int32 { return r.adj.SlotOf(e) }

// neighborRun exposes v's sorted sampled neighbors and the heap slots of
// the corresponding edges. Read-only; invalidated by the next insert/evict.
func (r *Reservoir) neighborRun(v graph.NodeID) ([]graph.NodeID, []int32) {
	return r.adj.NeighborRun(v)
}

// commonNeighborsWithSlots enumerates Γ̂(u)∩Γ̂(v) in ascending order,
// yielding each common neighbor with the heap slots of {u,w} and {v,w}.
func (r *Reservoir) commonNeighborsWithSlots(u, v graph.NodeID, fn func(w graph.NodeID, su, sv int32) bool) {
	r.adj.CommonNeighborsWithSlots(u, v, fn)
}

// insert stores a new sampled edge and returns its heap arena slot.
func (r *Reservoir) insert(ent order.Entry) int32 {
	slot := r.heap.Push(ent)
	r.adj.AddWithSlot(ent.Edge, slot)
	return slot
}

// remove deletes the sampled edge e from an arbitrary heap position and
// drops it from the adjacency index — the turnstile-deletion primitive.
// ok=false when e is not sampled (the reservoir is untouched).
func (r *Reservoir) remove(e graph.Edge) (order.Entry, bool) {
	ent, ok := r.heap.Remove(e.Key())
	if !ok {
		return order.Entry{}, false
	}
	r.adj.Remove(ent.Edge)
	return ent, true
}

func (r *Reservoir) evictMin() order.Entry {
	ent := r.heap.PopMin()
	r.adj.Remove(ent.Edge)
	return ent
}
