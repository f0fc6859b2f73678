// Package order implements the indexed binary min-heap that backs the GPS
// reservoir (Algorithm 1 of the paper).
//
// The paper's implementation notes (§3.2) call for a binary heap stored in a
// flat array, with the root holding the lowest-priority edge so that the
// eviction candidate is available in O(1) and insert/evict cost O(log m).
// On top of the plain heap this package maintains an edge-key → entry index,
// because the estimators (Algorithms 2 and 3) must look up the stored weight
// w(k') of an arbitrary sampled edge to form q(k') = min{1, w(k')/z*}, and
// the in-stream estimator additionally updates per-edge covariance
// accumulators C̃_k in place.
//
// Layout: entries live in a flat arena addressed by stable slot ids and
// never move; the heap itself is an array of int32 slot ids ordered by
// priority, so sift operations move 4-byte ids instead of 48-byte entries
// and touch no index. The edge-key index is graph.KeyTable, the flat
// open-addressing table (linear probing, backward-shift deletion) that also
// interns the adjacency's nodes: it keeps per-operation map overhead off
// the sampler's hot path, and steady-state Push/PopMin cycles are
// allocation-free.
package order

import (
	"fmt"
	"math"
	"slices"

	"gps/internal/graph"
)

// Entry is the reservoir record of one sampled edge.
type Entry struct {
	Edge     graph.Edge
	Weight   float64 // w(k), fixed at arrival time
	Priority float64 // r(k) = w(k)/u(k)

	// In-stream covariance accumulators (Algorithm 3 lines 18-19, 27).
	// They live in the heap entry so that eviction of the edge discards
	// them, exactly as lines 39-40 of Algorithm 3 prescribe.
	TriCov   float64 // C̃_k(△)
	WedgeCov float64 // C̃_k(Λ)
}

// Heap is a binary min-heap of Entries keyed by Priority with an auxiliary
// edge-key index. The zero value is not usable; construct with NewHeap.
//
// Pointers returned by Get/At/Min are valid only until the next Push or
// PopMin: a Push may grow the arena, and a PopMin recycles the popped slot.
type Heap struct {
	arena []Entry        // slot id → entry; entries do not move within a slot
	freed []int32        // recycled slot ids
	heap  []int32        // slot ids, heap-ordered by arena[slot].Priority
	pos   []int32        // slot id → heap position, parallel to arena; stale at freed slots
	tab   graph.KeyTable // edge key → arena slot
}

// NewHeap returns an empty heap with capacity hint n.
func NewHeap(n int) *Heap {
	h := &Heap{
		arena: make([]Entry, 0, n+1),
		heap:  make([]int32, 0, n+1),
		pos:   make([]int32, 0, n+1),
	}
	h.tab.Init(n + 1)
	return h
}

// Clone returns a deep copy of the heap: arena, heap order, free list and
// edge-key index are all duplicated, so the clone and the original evolve
// independently. Cost is O(capacity) flat memory copies with four
// allocations and no rehashing.
func (h *Heap) Clone() *Heap { return h.CloneInto(nil) }

// CloneInto is Clone writing over dst, reusing dst's backing arrays when
// their capacity suffices — the allocation-free refresh path behind the
// engine's recycled shard clones. dst must not be h itself and must not be
// referenced anywhere else (its previous contents are destroyed). A nil dst
// allocates a fresh heap, making CloneInto(nil) identical to Clone.
func (h *Heap) CloneInto(dst *Heap) *Heap {
	if dst == nil {
		dst = &Heap{}
	}
	dst.arena = append(dst.arena[:0], h.arena...)
	dst.freed = append(dst.freed[:0], h.freed...)
	dst.heap = append(dst.heap[:0], h.heap...)
	dst.pos = append(dst.pos[:0], h.pos...)
	h.tab.CloneInto(&dst.tab)
	return dst
}

// ExportState returns views of the heap's complete internal state: the
// entry arena (slot id → entry, including freed slots), the recycled-slot
// free list, and the heap array of slot ids in heap order. The views are
// read-only and invalidated by the next Push or PopMin. Together with
// RestoreHeap this is the durability surface of the reservoir: the exported
// triple determines the heap bit for bit, including the layout future sift
// operations and slot assignments depend on. The edge-key index is not
// exported — it is derivable, and RestoreHeap rebuilds it.
//
// Entries at freed slots are garbage left by past evictions; encoders must
// normalize them (write the zero Entry) so serialized state is a function
// of live state only.
func (h *Heap) ExportState() (arena []Entry, freed []int32, heapOrder []int32) {
	return h.arena, h.freed, h.heap
}

// RestoreHeap reconstructs a heap from state produced by ExportState (or
// decoded from a checkpoint), taking ownership of the slices. It validates
// every structural invariant a forged or corrupted checkpoint could break —
// freed and heap slots must exactly partition the arena, freed entries must
// be zeroed, live entries must hold canonical edges with distinct keys,
// positive finite weights and priorities, finite covariance accumulators,
// and the heap array must satisfy the min-heap property — and returns an
// error (never panics) on any violation. The edge-key index is rebuilt from
// the live entries; its bucket layout is unobservable, so a restored heap
// evolves bit-identically to the exported one.
func RestoreHeap(arena []Entry, freed, heapOrder []int32) (*Heap, error) {
	n := len(arena)
	if n > (1<<31)-1 {
		return nil, fmt.Errorf("order: arena of %d slots exceeds int32", n)
	}
	if len(freed)+len(heapOrder) != n {
		return nil, fmt.Errorf("order: %d freed + %d live slots do not partition arena of %d",
			len(freed), len(heapOrder), n)
	}
	seen := make([]bool, n)
	mark := func(slot int32) error {
		if slot < 0 || int(slot) >= n {
			return fmt.Errorf("order: slot %d outside arena of %d", slot, n)
		}
		if seen[slot] {
			return fmt.Errorf("order: slot %d listed twice", slot)
		}
		seen[slot] = true
		return nil
	}
	for _, slot := range freed {
		if err := mark(slot); err != nil {
			return nil, err
		}
		if arena[slot] != (Entry{}) {
			return nil, fmt.Errorf("order: freed slot %d holds a non-zero entry", slot)
		}
	}
	h := &Heap{arena: arena, freed: freed, heap: heapOrder, pos: make([]int32, n)}
	h.tab.Init(len(heapOrder) + 1)
	for i, slot := range heapOrder {
		if err := mark(slot); err != nil {
			return nil, err
		}
		h.pos[slot] = int32(i)
		ent := &arena[slot]
		if !ent.Edge.Canonical() {
			return nil, fmt.Errorf("order: slot %d holds non-canonical edge %v", slot, ent.Edge)
		}
		if !(ent.Weight > 0) || math.IsInf(ent.Weight, 0) {
			return nil, fmt.Errorf("order: slot %d weight %v is not positive finite", slot, ent.Weight)
		}
		if !(ent.Priority > 0) || math.IsInf(ent.Priority, 0) {
			return nil, fmt.Errorf("order: slot %d priority %v is not positive finite", slot, ent.Priority)
		}
		if math.IsNaN(ent.TriCov) || math.IsInf(ent.TriCov, 0) ||
			math.IsNaN(ent.WedgeCov) || math.IsInf(ent.WedgeCov, 0) {
			return nil, fmt.Errorf("order: slot %d covariance accumulators are not finite", slot)
		}
		if i > 0 {
			parent := heapOrder[(i-1)/2]
			if arena[parent].Priority > ent.Priority {
				return nil, fmt.Errorf("order: heap property violated at position %d", i)
			}
		}
		key := ent.Edge.Key()
		if _, dup := h.tab.Get(key); dup {
			return nil, fmt.Errorf("order: duplicate edge %v", ent.Edge)
		}
		h.tab.Put(key, slot)
	}
	return h, nil
}

// Len returns the number of stored entries.
func (h *Heap) Len() int { return len(h.heap) }

// Contains reports whether the edge with the given key is stored.
func (h *Heap) Contains(key uint64) bool {
	_, ok := h.tab.Get(key)
	return ok
}

// Get returns the entry for the edge key, or nil if absent. The pointer may
// be used to read the weight or update the covariance accumulators; it is
// invalidated by the next Push or PopMin.
func (h *Heap) Get(key uint64) *Entry {
	slot, ok := h.tab.Get(key)
	if !ok {
		return nil
	}
	return &h.arena[slot]
}

// Min returns the lowest-priority entry, or nil if the heap is empty.
func (h *Heap) Min() *Entry {
	if len(h.heap) == 0 {
		return nil
	}
	return &h.arena[h.heap[0]]
}

// MinPriority returns the priority of the lowest-priority entry. It panics
// on an empty heap; callers gate on Len. It is the O(1) rejection test of
// the sampler's full-reservoir fast path.
func (h *Heap) MinPriority() float64 { return h.arena[h.heap[0]].Priority }

// At returns the entry at heap position i (0 ≤ i < Len) in unspecified
// order; it is the iteration primitive used by the post-stream estimator's
// parallel scan.
func (h *Heap) At(i int) *Entry { return &h.arena[h.heap[i]] }

// SlotAt returns the arena slot id at heap position i (0 ≤ i < Len). Slot
// ids are stable for an entry's whole residence in the heap, which makes
// them the index space of the estimators' slot-indexed probability tables.
func (h *Heap) SlotAt(i int) int32 { return h.heap[i] }

// BySlot returns the entry stored at an arena slot id previously obtained
// from Push, SlotAt, or an adjacency slot run. Like Get, the pointer is
// invalidated by the next Push or PopMin. The slot must be live; BySlot
// performs no validity check.
func (h *Heap) BySlot(slot int32) *Entry { return &h.arena[slot] }

// ArenaLen returns the arena length: one past the largest slot id ever
// issued, i.e. the size a slot-indexed lookup table must have.
func (h *Heap) ArenaLen() int { return len(h.arena) }

// Push inserts a new entry and returns the arena slot id it was stored at;
// the slot stays valid until the entry is popped. It panics if an entry with
// the same edge key is already stored; GPS streams carry unique edges, so a
// duplicate reaching the reservoir indicates a broken stream simplifier
// upstream.
func (h *Heap) Push(e Entry) int32 {
	key := e.Edge.Key()
	if key == 0 {
		// Key 0 is the table's empty-bucket marker. It only arises from a
		// zero-value Edge built outside graph.NewEdge, which the graph
		// model already forbids (self loop at node 0).
		panic("order: non-canonical zero edge pushed")
	}
	if _, dup := h.tab.Get(key); dup {
		panic("order: duplicate edge pushed: " + e.Edge.String())
	}
	var slot int32
	if n := len(h.freed); n > 0 {
		slot = h.freed[n-1]
		h.freed = h.freed[:n-1]
		h.arena[slot] = e
	} else {
		slot = int32(len(h.arena))
		h.arena = append(h.arena, e)
		h.pos = append(h.pos, 0)
	}
	h.tab.Put(key, slot)
	h.heap = append(h.heap, slot)
	h.pos[slot] = int32(len(h.heap) - 1)
	h.siftUp(int32(len(h.heap) - 1))
	return slot
}

// PopMin removes and returns the lowest-priority entry. It panics on an
// empty heap.
func (h *Heap) PopMin() Entry {
	if len(h.heap) == 0 {
		panic("order: PopMin on empty heap")
	}
	slot := h.heap[0]
	min := h.arena[slot]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	if last > 0 {
		h.siftDown(0)
	}
	h.tab.Del(min.Edge.Key())
	h.freed = append(h.freed, slot)
	return min
}

// Remove deletes the entry with the given edge key from an arbitrary heap
// position — the turnstile-deletion primitive. The vacated position is
// refilled by the last heap element and re-sifted in both directions, the
// key index entry is backward-shift deleted, and the arena slot is recycled
// exactly as PopMin recycles the root's. Returns the removed entry and
// whether the key was present; an absent key leaves the heap untouched.
func (h *Heap) Remove(key uint64) (Entry, bool) {
	slot, ok := h.tab.Get(key)
	if !ok {
		return Entry{}, false
	}
	removed := h.arena[slot]
	i := h.pos[slot]
	last := int32(len(h.heap) - 1)
	if i != last {
		h.heap[i] = h.heap[last]
		h.pos[h.heap[i]] = i
	}
	h.heap = h.heap[:last]
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
	h.tab.Del(key)
	h.freed = append(h.freed, slot)
	return removed, true
}

// Filler bulk-loads a new heap with the candidates of a priority-sampling
// merge, offered from the highest priority down. The loaded heap is
// exactly the one Contains plus Push would build from the same offers —
// same slots, heap order, positions and key-table layout — at a fraction
// of the cost:
//
//   - Offer makes one insert-if-absent probe of the key table, where
//     Contains and Push's duplicate check probe it twice;
//   - Offer only notes where a stored entry lives, and Done copies all of
//     them in one pass whose independent reads overlap in memory;
//   - Done sifts with priorities held in a position-indexed array instead
//     of reading them from the arena. Each candidate is the lowest so
//     far, so it sifts up to the root or to an equal-priority ancestor,
//     and consecutive sift paths share all but their lowest levels.
//
// The heap must not be used between Filler and Done.
type Filler struct {
	h   *Heap
	src []*Entry // src[slot]: where the entry stored at slot is copied from
}

// Filler starts a bulk load of h, which must be as NewHeap returned it: no
// entry ever pushed. capHint is the expected number of stored entries.
func (h *Heap) Filler(capHint int) *Filler {
	if len(h.arena) != 0 {
		panic("order: Filler on a used heap")
	}
	return &Filler{h: h, src: make([]*Entry, 0, capHint)}
}

// Offer stores the entry *src under the edge key key, which must be
// src.Edge.Key(), and returns its arena slot — unless an entry with that
// key is already stored, in which case it returns false. src is read by
// Done, not here, and must stay valid and unchanged until then.
func (f *Filler) Offer(key uint64, src *Entry) (int32, bool) {
	if key == 0 {
		panic("order: non-canonical zero edge pushed") // see Push
	}
	slot := int32(len(f.src))
	if _, stored := f.h.tab.PutIfAbsent(key, slot); !stored {
		return 0, false
	}
	f.src = append(f.src, src)
	return slot, true
}

// Done copies the stored entries into the arena and builds the heap order
// and position index, after which h is usable as usual. The Filler must
// not be used again.
func (f *Filler) Done() {
	h, n := f.h, len(f.src)
	h.arena = slices.Grow(h.arena, n)[:n]
	for slot, src := range f.src {
		h.arena[slot] = *src
	}
	h.heap = slices.Grow(h.heap, n)[:n]
	prio := make([]float64, n) // prio[i] = priority at heap position i
	for slot := range int32(n) {
		// Hole sift-up: the same moves as siftUp's swaps, writing each
		// displaced ancestor once.
		p := h.arena[slot].Priority
		i := slot
		for i > 0 {
			parent := (i - 1) / 2
			if prio[parent] <= p {
				break
			}
			h.heap[i], prio[i] = h.heap[parent], prio[parent]
			i = parent
		}
		h.heap[i], prio[i] = slot, p
	}
	h.pos = slices.Grow(h.pos, n)[:n]
	for i, slot := range h.heap {
		h.pos[slot] = int32(i)
	}
	f.h, f.src = nil, nil
}

func (h *Heap) prio(i int32) float64 { return h.arena[h.heap[i]].Priority }

func (h *Heap) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio(parent) <= h.prio(i) {
			return
		}
		h.heap[parent], h.heap[i] = h.heap[i], h.heap[parent]
		h.pos[h.heap[parent]] = parent
		h.pos[h.heap[i]] = i
		i = parent
	}
}

func (h *Heap) siftDown(i int32) {
	n := int32(len(h.heap))
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.prio(right) < h.prio(left) {
			smallest = right
		}
		if h.prio(i) <= h.prio(smallest) {
			return
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		h.pos[h.heap[i]] = i
		h.pos[h.heap[smallest]] = smallest
		i = smallest
	}
}
