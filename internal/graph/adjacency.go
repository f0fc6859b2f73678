package graph

import (
	"fmt"
	"slices"
)

// Adjacency is a dynamic undirected adjacency structure supporting edge
// insertion, deletion and neighborhood queries. It is the topology index of
// the GPS reservoir: W(k,K̂) weight functions and the triangle/wedge
// estimators need Γ̂(v) iteration and common-neighbor queries against the
// *currently sampled* graph, which gains and loses edges as the reservoir
// evolves.
//
// Layout: nodes are interned to dense int32 ids on first touch (one probe
// of a flat KeyTable per endpoint, node v under key uint64(v)+1), and each
// dense id owns a sorted []NodeID neighbor slice. Dense ids of nodes whose
// last incident edge is removed are recycled, and their neighbor slices
// keep their capacity, so a reservoir in steady state (one insert + one
// evict per arrival) runs allocation-free. Compared to the earlier
// map[NodeID]map[NodeID]struct{} representation this removes the per-node
// hash set allocations, makes Neighbors/CommonNeighbors iterate contiguous
// memory, and gives every query a deterministic (ascending) iteration
// order.
//
// Space is O(|V̂|+m) as discussed in §3.2 (S4) of the paper. Neighbor
// lookup is O(log deg); insertion and removal are O(deg) moves within one
// slice, which for the small degrees of reservoir subgraphs is faster than
// a hash probe. Common neighbors of (u,v) cost
// O(min(deg(u)+deg(v), min·log max)) — a linear merge of the two sorted
// runs, switching to binary probes when the degrees are badly skewed.
//
// Each neighbor run has a parallel slot run: slots[id][i] is an opaque
// int32 annotation for the edge {nodes[id], nbrs[id][i]}, which the GPS
// reservoir uses to record the heap arena slot of every sampled edge. That
// turns "look up the stored weight of an enumerated neighbor edge" — the
// inner operation of every estimator — from a hash probe into a contiguous
// array read alongside the neighbor id. Edges added through plain Add carry
// the slot -1.
//
// The zero value is not usable; construct with NewAdjacency.
type Adjacency struct {
	idx   KeyTable   // intern table: nodeKey(v) → dense id
	nodes []NodeID   // dense id → node
	nbrs  [][]NodeID // dense id → sorted neighbors
	slots [][]int32  // dense id → per-neighbor edge slots, parallel to nbrs
	freed []int32    // recycled dense ids
	edges int

	// Backing arrays of the most recent CloneInto into this value, retained
	// so a recycled clone can be refreshed without reallocating them.
	nbrBack  []NodeID
	slotBack []int32
}

// NewAdjacency returns an empty adjacency structure.
func NewAdjacency() *Adjacency {
	a := &Adjacency{}
	a.idx.Init(0)
	return a
}

// nodeKey is v's key in the intern table. Node 0 is valid and key 0 marks
// an empty bucket, hence the offset.
func nodeKey(v NodeID) uint64 { return uint64(v) + 1 }

// lookup returns v's dense id and whether v is interned.
func (a *Adjacency) lookup(v NodeID) (int32, bool) { return a.idx.Get(nodeKey(v)) }

// Clone returns a deep copy of the adjacency structure; the clone and the
// original evolve independently. Neighbor and slot slices are copied into
// shared backing arrays sized to the live edge count, so the clone costs a
// few large allocations plus two flat intern-table copies rather than one
// allocation per node.
func (a *Adjacency) Clone() *Adjacency { return a.CloneInto(nil) }

// CloneInto is Clone writing over dst, reusing dst's backing arrays (intern
// table, dense tables, and the shared neighbor/slot backing of a previous
// CloneInto) when their capacity suffices. dst must not be a itself and
// must not be referenced anywhere else; nil allocates a fresh structure.
func (a *Adjacency) CloneInto(dst *Adjacency) *Adjacency {
	if dst == nil {
		dst = &Adjacency{}
	}
	a.idx.CloneInto(&dst.idx)
	dst.nodes = append(dst.nodes[:0], a.nodes...)
	dst.freed = append(dst.freed[:0], a.freed...)
	dst.edges = a.edges
	if cap(dst.nbrs) >= len(a.nbrs) {
		dst.nbrs = dst.nbrs[:len(a.nbrs)]
	} else {
		dst.nbrs = make([][]NodeID, len(a.nbrs))
	}
	if cap(dst.slots) >= len(a.slots) {
		dst.slots = dst.slots[:len(a.slots)]
	} else {
		dst.slots = make([][]int32, len(a.slots))
	}
	// Every undirected edge appears in exactly two runs.
	total := 2 * a.edges
	nb, sb := dst.nbrBack, dst.slotBack
	if cap(nb) < total {
		nb = make([]NodeID, 0, total)
	}
	if cap(sb) < total {
		sb = make([]int32, 0, total)
	}
	nb, sb = nb[:0], sb[:0]
	for id, s := range a.nbrs {
		if len(s) == 0 {
			dst.nbrs[id], dst.slots[id] = nil, nil
			continue
		}
		lo := len(nb)
		nb = append(nb, s...)
		sb = append(sb, a.slots[id]...)
		// Full-length cap so a later in-place append in the clone cannot
		// clobber the next node's run: force reallocation on growth.
		dst.nbrs[id] = nb[lo:len(nb):len(nb)]
		dst.slots[id] = sb[lo:len(sb):len(sb)]
	}
	dst.nbrBack, dst.slotBack = nb, sb
	return dst
}

// ExportDense returns views of the adjacency's complete dense state: the
// dense-id → node table, the recycled-id free list, and the per-id neighbor
// and slot runs. The views are read-only and invalidated by the next Add or
// Remove. Together with RestoreAdjacency this is the durability surface of
// the topology index: dense-id assignment (including the recycling history
// baked into freed) determines estimator iteration order, so it must
// survive a checkpoint bit for bit. The intern table is not exported — it
// is derivable, and RestoreAdjacency rebuilds it.
//
// nodes entries at freed ids are stale values from released nodes; encoders
// must normalize them (write 0) so serialized state is a function of live
// state only.
func (a *Adjacency) ExportDense() (nodes []NodeID, freed []int32, nbrs [][]NodeID, slots [][]int32) {
	return a.nodes, a.freed, a.nbrs, a.slots
}

// RestoreAdjacency reconstructs an adjacency structure from state produced
// by ExportDense (or decoded from a checkpoint), taking ownership of the
// slices. It validates everything a forged or corrupted checkpoint could
// break — freed ids must be in range, unique and own empty runs, live ids
// must intern distinct nodes with non-empty, strictly ascending, self-free
// neighbor runs and parallel slot runs, and every half-edge must have its
// symmetric twin carrying the same slot annotation — and returns an error
// (never panics) on any violation. Slot annotations are opaque here; the
// reservoir layer cross-checks them against its heap arena.
func RestoreAdjacency(nodes []NodeID, freed []int32, nbrs [][]NodeID, slots [][]int32) (*Adjacency, error) {
	n := len(nodes)
	if n > (1<<31)-1 {
		return nil, fmt.Errorf("graph: dense table of %d ids exceeds int32", n)
	}
	if len(nbrs) != n || len(slots) != n {
		return nil, fmt.Errorf("graph: dense tables disagree: %d nodes, %d neighbor runs, %d slot runs",
			n, len(nbrs), len(slots))
	}
	isFreed := make([]bool, n)
	for _, id := range freed {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("graph: freed id %d outside dense table of %d", id, n)
		}
		if isFreed[id] {
			return nil, fmt.Errorf("graph: freed id %d listed twice", id)
		}
		isFreed[id] = true
		if len(nbrs[id]) != 0 || len(slots[id]) != 0 {
			return nil, fmt.Errorf("graph: freed id %d has a non-empty run", id)
		}
		if nodes[id] != 0 {
			return nil, fmt.Errorf("graph: freed id %d has a non-zero node", id)
		}
	}
	a := &Adjacency{nodes: nodes, nbrs: nbrs, slots: slots, freed: freed}
	a.idx.Init(n - len(freed))
	half := 0
	for id := 0; id < n; id++ {
		if isFreed[id] {
			continue
		}
		v, run, sl := nodes[id], nbrs[id], slots[id]
		if len(run) == 0 {
			return nil, fmt.Errorf("graph: live id %d has no neighbors", id)
		}
		if len(sl) != len(run) {
			return nil, fmt.Errorf("graph: id %d has %d neighbors but %d slots", id, len(run), len(sl))
		}
		if _, stored := a.idx.PutIfAbsent(nodeKey(v), int32(id)); !stored {
			return nil, fmt.Errorf("graph: node %d interned twice", v)
		}
		for j, u := range run {
			if u == v {
				return nil, fmt.Errorf("graph: self loop at node %d", v)
			}
			if j > 0 && run[j-1] >= u {
				return nil, fmt.Errorf("graph: neighbor run of node %d is not strictly ascending", v)
			}
		}
		half += len(run)
	}
	// Symmetry: every half-edge (v,u,slot) needs its twin (u,v,slot).
	for id := 0; id < n; id++ {
		if isFreed[id] {
			continue
		}
		v := nodes[id]
		for j, u := range nbrs[id] {
			uid, ok := a.lookup(u)
			if !ok {
				return nil, fmt.Errorf("graph: node %d lists neighbor %d, which is not interned", v, u)
			}
			run := nbrs[uid]
			i := searchNode(run, v)
			if i >= len(run) || run[i] != v {
				return nil, fmt.Errorf("graph: edge %d-%d has no symmetric half", v, u)
			}
			if slots[uid][i] != slots[id][j] {
				return nil, fmt.Errorf("graph: edge %d-%d slot annotations disagree (%d vs %d)",
					v, u, slots[id][j], slots[uid][i])
			}
		}
	}
	a.edges = half / 2
	return a, nil
}

// BuildAdjacency returns the structure that AddWithSlot(edges[i], slots[i])
// for i = 0, 1, ... builds on an empty one, in one bulk pass. Dense ids
// follow the same first-touch order (U before V, edge by edge), so the
// dense tables, runs and slot annotations match the sequential build
// exactly. Degrees are counted first; each run is then filled into one
// shared CSR backing array (per-node runs cut from one array, with the
// full-length caps CloneInto uses) and sorted in place. edges must be
// distinct canonical edges and slots as long as edges. nodeHint is the
// expected number of distinct endpoints; it sizes the intern table and the
// dense tables, which grow past it when needed.
func BuildAdjacency(edges []Edge, slots []int32, nodeHint int) *Adjacency {
	a := &Adjacency{nodes: make([]NodeID, 0, nodeHint)}
	a.idx.Init(nodeHint)
	ends := make([]int32, 2*len(edges)) // dense ids of U and V per edge
	deg := make([]int32, 0, nodeHint)
	for i, e := range edges {
		for j, v := range [2]NodeID{e.U, e.V} {
			id, isNew := a.idx.PutIfAbsent(nodeKey(v), int32(len(a.nodes)))
			if isNew {
				a.nodes = append(a.nodes, v)
				deg = append(deg, 0)
			}
			deg[id]++
			ends[2*i+j] = id
		}
	}
	// Turn degrees into run ends; the fill below walks each cursor back
	// to its run's start.
	cur := deg
	for id := 1; id < len(cur); id++ {
		cur[id] += cur[id-1]
	}
	// A half-edge packs the neighbor above its slot, so sorting a run of
	// packed words orders it by neighbor and carries the slot along.
	packed := make([]uint64, len(ends))
	for i, e := range edges {
		s := uint64(uint32(slots[i]))
		u, v := ends[2*i], ends[2*i+1]
		cur[u]--
		packed[cur[u]] = uint64(e.V)<<32 | s
		cur[v]--
		packed[cur[v]] = uint64(e.U)<<32 | s
	}
	n := len(a.nodes)
	nb, sb := make([]NodeID, len(packed)), make([]int32, len(packed))
	a.nbrs, a.slots = make([][]NodeID, n), make([][]int32, n)
	for id := range n {
		lo, hi := int(cur[id]), len(packed)
		if id+1 < n {
			hi = int(cur[id+1])
		}
		run := packed[lo:hi]
		slices.Sort(run)
		for j, p := range run {
			nb[lo+j], sb[lo+j] = NodeID(p>>32), int32(uint32(p))
		}
		a.nbrs[id], a.slots[id] = nb[lo:hi:hi], sb[lo:hi:hi]
	}
	a.edges = len(edges)
	return a
}

// intern returns the dense id of v, allocating one if v is new: the top
// of the free list, or else the next id past the dense tables.
func (a *Adjacency) intern(v NodeID) int32 {
	next := int32(len(a.nodes))
	if n := len(a.freed); n > 0 {
		next = a.freed[n-1]
	}
	id, isNew := a.idx.PutIfAbsent(nodeKey(v), next)
	if !isNew {
		return id
	}
	if n := len(a.freed); n > 0 {
		a.freed = a.freed[:n-1]
		a.nodes[id] = v
	} else {
		a.nodes = append(a.nodes, v)
		a.nbrs = append(a.nbrs, nil)
		a.slots = append(a.slots, nil)
	}
	return id
}

// release drops v from the intern table, recycling its dense id and keeping
// the neighbor/slot slices' capacity for the next node interned.
func (a *Adjacency) release(v NodeID, id int32) {
	a.idx.Del(nodeKey(v))
	a.nbrs[id] = a.nbrs[id][:0]
	a.slots[id] = a.slots[id][:0]
	a.freed = append(a.freed, id)
}

// searchNode returns the insertion point of v in the sorted slice s.
func searchNode(s []NodeID, v NodeID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// addHalf inserts neighbor v with edge annotation slot into dense id's
// sorted run, reporting false if v was already present.
func (a *Adjacency) addHalf(id int32, v NodeID, slot int32) bool {
	s := a.nbrs[id]
	i := searchNode(s, v)
	if i < len(s) && s[i] == v {
		return false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	a.nbrs[id] = s
	sl := append(a.slots[id], 0)
	copy(sl[i+1:], sl[i:])
	sl[i] = slot
	a.slots[id] = sl
	return true
}

// removeHalf deletes neighbor v (and its slot) from dense id's run,
// reporting false if absent.
func (a *Adjacency) removeHalf(id int32, v NodeID) bool {
	s := a.nbrs[id]
	i := searchNode(s, v)
	if i >= len(s) || s[i] != v {
		return false
	}
	copy(s[i:], s[i+1:])
	a.nbrs[id] = s[:len(s)-1]
	sl := a.slots[id]
	copy(sl[i:], sl[i+1:])
	a.slots[id] = sl[:len(sl)-1]
	return true
}

// Add inserts the edge with no slot annotation and reports whether it was
// newly added (false if it was already present).
func (a *Adjacency) Add(e Edge) bool { return a.AddWithSlot(e, -1) }

// AddWithSlot inserts the edge annotated with the given slot, recorded in
// both endpoints' slot runs. The reservoir passes the heap arena slot here
// so every later neighbor enumeration can resolve the edge's heap entry by
// array read.
func (a *Adjacency) AddWithSlot(e Edge, slot int32) bool {
	iu := a.intern(e.U)
	if !a.addHalf(iu, e.V, slot) {
		return false
	}
	iv := a.intern(e.V)
	a.addHalf(iv, e.U, slot)
	a.edges++
	return true
}

// Remove deletes the edge and reports whether it was present. Nodes whose
// last incident edge is removed are dropped entirely so that the node count
// tracks the sampled subgraph.
func (a *Adjacency) Remove(e Edge) bool {
	iu, ok := a.lookup(e.U)
	if !ok {
		return false
	}
	if !a.removeHalf(iu, e.V) {
		return false
	}
	if len(a.nbrs[iu]) == 0 {
		a.release(e.U, iu)
	}
	iv, _ := a.lookup(e.V)
	a.removeHalf(iv, e.U)
	if len(a.nbrs[iv]) == 0 {
		a.release(e.V, iv)
	}
	a.edges--
	return true
}

func (a *Adjacency) neighborsOf(v NodeID) []NodeID {
	if id, ok := a.lookup(v); ok {
		return a.nbrs[id]
	}
	return nil
}

// Has reports whether the edge is present.
func (a *Adjacency) Has(e Edge) bool {
	s := a.neighborsOf(e.U)
	i := searchNode(s, e.V)
	return i < len(s) && s[i] == e.V
}

// HasNode reports whether v has at least one incident edge.
func (a *Adjacency) HasNode(v NodeID) bool {
	_, ok := a.lookup(v)
	return ok
}

// Degree returns the number of neighbors of v in the structure.
func (a *Adjacency) Degree(v NodeID) int { return len(a.neighborsOf(v)) }

// NumNodes returns the number of nodes with at least one incident edge.
func (a *Adjacency) NumNodes() int { return a.idx.Len() }

// NumEdges returns the number of edges currently stored.
func (a *Adjacency) NumEdges() int { return a.edges }

// Neighbors calls fn for each neighbor of v in ascending order until fn
// returns false.
func (a *Adjacency) Neighbors(v NodeID, fn func(NodeID) bool) {
	for _, u := range a.neighborsOf(v) {
		if !fn(u) {
			return
		}
	}
}

// NeighborRun returns v's sorted neighbor run and the parallel slot run
// (slots[i] annotates the edge {v, nbrs[i]}). Both slices are views into
// internal storage: callers must treat them as read-only, and they are
// invalidated by the next Add or Remove. Absent nodes return nil runs.
func (a *Adjacency) NeighborRun(v NodeID) (nbrs []NodeID, slots []int32) {
	if id, ok := a.lookup(v); ok {
		return a.nbrs[id], a.slots[id]
	}
	return nil, nil
}

// SlotOf returns the slot annotation recorded for edge e, or -1 when e is
// absent (note that -1 is also the annotation of edges added through plain
// Add). Cost is one intern lookup plus a binary search — no hash probe of
// any per-edge table.
func (a *Adjacency) SlotOf(e Edge) int32 {
	s, sl := a.NeighborRun(e.U)
	i := searchNode(s, e.V)
	if i < len(s) && s[i] == e.V {
		return sl[i]
	}
	return -1
}

// DenseLen returns the length of the dense-id space, including freed ids
// (whose runs are empty). It is the iteration bound for RunAt.
func (a *Adjacency) DenseLen() int { return len(a.nbrs) }

// RunAt returns the node interned at the given dense id together with its
// neighbor and slot runs. Freed ids return empty runs and a stale node id;
// callers must skip runs of length zero. The run slices follow the same
// read-only/invalidation contract as NeighborRun.
func (a *Adjacency) RunAt(id int) (NodeID, []NodeID, []int32) {
	return a.nodes[id], a.nbrs[id], a.slots[id]
}

// SlotEnds is the endpoint pass of slot-indexed estimation: one walk over
// the runs that sets ends[s] to the dense ids of the U and V endpoints of
// the edge annotated with slot s, so RunAt can read both endpoint runs
// without a lookup. In the run of node v, the half-edge to u gives U's id
// when v < u and V's id otherwise. Every annotation must index ends (plain
// Add's -1 does not); entries no edge carries are left as they were.
func (a *Adjacency) SlotEnds(ends [][2]int32) {
	for id, run := range a.nbrs {
		v, sl := a.nodes[id], a.slots[id]
		for j, u := range run {
			if v < u {
				ends[sl[j]][0] = int32(id)
			} else {
				ends[sl[j]][1] = int32(id)
			}
		}
	}
}

// IntersectRuns calls fn(i, j) for each node that both sorted runs a and b
// hold, in ascending order, with i its index in a and j its index in b,
// until fn returns false. It is the one intersection behind
// CommonNeighbors, CommonNeighborsWithSlots and estimators that resolved
// both endpoints' runs themselves (NeighborRun): a two-pointer merge over
// the runs, switching to binary probes of the longer run for each node of
// the shorter when the lengths differ by more than 16×. It allocates
// nothing.
func IntersectRuns(a, b []NodeID, fn func(i, j int) bool) {
	swapped := len(a) > len(b)
	if swapped {
		a, b = b, a
	}
	if len(a) == 0 {
		return
	}
	if len(b) > 16*len(a) {
		// Skewed: probe the long run for each node of the short one.
		off := 0
		for i, x := range a {
			j := off + searchNode(b[off:], x)
			if j < len(b) && b[j] == x && !yieldPair(fn, swapped, i, j) {
				return
			}
			off = j
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y && !yieldPair(fn, swapped, i, j) {
			return
		}
		// Step past the smaller head, or past both on a match, without a
		// branch: d>>63 is -1 when d < 0 and 0 otherwise. The difference
		// is taken in 64 bits, so it cannot overflow for any two NodeIDs.
		d := int64(y) - int64(x)
		i += 1 + int(d>>63)
		j += 1 + int(-d>>63)
	}
}

// yieldPair calls fn with the indices in the order of IntersectRuns'
// arguments, undoing its swap of the shorter run to the front.
func yieldPair(fn func(i, j int) bool, swapped bool, i, j int) bool {
	if swapped {
		return fn(j, i)
	}
	return fn(i, j)
}

// CommonNeighbors calls fn for each node adjacent to both u and v, in
// ascending order, until fn returns false. This is the query behind
// W(k,K̂)=|Γ̂(v1)∩Γ̂(v2)| (§3.2, S4), answered by IntersectRuns over the
// two neighbor runs. It allocates nothing.
func (a *Adjacency) CommonNeighbors(u, v NodeID, fn func(NodeID) bool) {
	nu, nv := a.neighborsOf(u), a.neighborsOf(v)
	IntersectRuns(nu, nv, func(i, _ int) bool { return fn(nu[i]) })
}

// CommonNeighborsWithSlots is CommonNeighbors additionally yielding the
// slot annotations of the two run edges: su for {u,w} and sv for {v,w}.
// Both methods enumerate through IntersectRuns, so their order is the
// same by construction and replacing one with the other cannot reorder a
// summation.
func (a *Adjacency) CommonNeighborsWithSlots(u, v NodeID, fn func(w NodeID, su, sv int32) bool) {
	nu, slu := a.NeighborRun(u)
	nv, slv := a.NeighborRun(v)
	IntersectRuns(nu, nv, func(i, j int) bool { return fn(nu[i], slu[i], slv[j]) })
}

// CountCommonNeighbors returns |Γ(u) ∩ Γ(v)|, the number of triangles the
// edge {u,v} would close against the stored graph.
func (a *Adjacency) CountCommonNeighbors(u, v NodeID) int {
	n := 0
	IntersectRuns(a.neighborsOf(u), a.neighborsOf(v), func(int, int) bool { n++; return true })
	return n
}

// Wedges returns the number of wedges (paths of length two) centered at v:
// deg(v) choose 2.
func (a *Adjacency) Wedges(v NodeID) int64 {
	d := int64(len(a.neighborsOf(v)))
	return d * (d - 1) / 2
}

// ForEachEdge calls fn once per stored edge (in canonical form) until fn
// returns false. Iteration order is unspecified.
func (a *Adjacency) ForEachEdge(fn func(Edge) bool) {
	for id, set := range a.nbrs {
		u := a.nodes[id]
		for _, v := range set {
			if u < v {
				if !fn(Edge{U: u, V: v}) {
					return
				}
			}
		}
	}
}

// ForEachNode calls fn once per node with at least one incident edge until fn
// returns false.
func (a *Adjacency) ForEachNode(fn func(NodeID) bool) {
	for id, set := range a.nbrs {
		if len(set) > 0 {
			if !fn(a.nodes[id]) {
				return
			}
		}
	}
}
