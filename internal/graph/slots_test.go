package graph

import (
	"slices"
	"testing"

	"gps/internal/randx"
)

func TestAdjacencySlotRuns(t *testing.T) {
	a := NewAdjacency()
	a.AddWithSlot(NewEdge(1, 2), 10)
	a.AddWithSlot(NewEdge(1, 3), 11)
	a.AddWithSlot(NewEdge(2, 3), 12)
	a.AddWithSlot(NewEdge(3, 4), 13)

	if got := a.SlotOf(NewEdge(1, 2)); got != 10 {
		t.Fatalf("SlotOf(1-2) = %d, want 10", got)
	}
	if got := a.SlotOf(NewEdge(2, 1)); got != 10 {
		t.Fatalf("SlotOf(2-1) = %d, want 10 (orientation-independent)", got)
	}
	if got := a.SlotOf(NewEdge(1, 4)); got != -1 {
		t.Fatalf("SlotOf(absent) = %d, want -1", got)
	}

	nbrs, slots := a.NeighborRun(3)
	if len(nbrs) != 3 || len(slots) != 3 {
		t.Fatalf("run of 3: %v / %v", nbrs, slots)
	}
	for i, want := range []struct {
		n NodeID
		s int32
	}{{1, 11}, {2, 12}, {4, 13}} {
		if nbrs[i] != want.n || slots[i] != want.s {
			t.Fatalf("run of 3 at %d: (%d,%d), want (%d,%d)", i, nbrs[i], slots[i], want.n, want.s)
		}
	}

	// Duplicate insert must not disturb the recorded slot.
	if a.AddWithSlot(NewEdge(1, 2), 99) {
		t.Fatal("duplicate AddWithSlot reported true")
	}
	if got := a.SlotOf(NewEdge(1, 2)); got != 10 {
		t.Fatalf("slot changed by duplicate add: %d", got)
	}

	// Removal drops the slot from both runs; reinsertion records the new one.
	a.Remove(NewEdge(1, 3))
	if got := a.SlotOf(NewEdge(1, 3)); got != -1 {
		t.Fatalf("removed edge still has slot %d", got)
	}
	a.AddWithSlot(NewEdge(1, 3), 20)
	if got := a.SlotOf(NewEdge(1, 3)); got != 20 {
		t.Fatalf("reinserted slot = %d, want 20", got)
	}

	// CommonNeighborsWithSlots yields (w, slot{u,w}, slot{v,w}) ascending.
	var seen []NodeID
	a.CommonNeighborsWithSlots(1, 2, func(w NodeID, su, sv int32) bool {
		seen = append(seen, w)
		if w != 3 || su != 20 || sv != 12 {
			t.Fatalf("common neighbor (w=%d su=%d sv=%d), want (3, 20, 12)", w, su, sv)
		}
		return true
	})
	if len(seen) != 1 {
		t.Fatalf("common neighbors of 1,2: %v", seen)
	}
}

func TestAdjacencyCommonNeighborsWithSlotsSkewed(t *testing.T) {
	// Degrees skewed beyond 16× exercise the binary-probe branch; the
	// result must match the merge branch and CommonNeighbors.
	a := NewAdjacency()
	slot := int32(0)
	for v := NodeID(2); v < 200; v++ {
		a.AddWithSlot(NewEdge(1, v), slot)
		slot++
	}
	for _, v := range []NodeID{5, 50, 150} {
		a.AddWithSlot(NewEdge(200, v), slot)
		slot++
	}
	a.AddWithSlot(NewEdge(1, 200), slot)

	var plain []NodeID
	a.CommonNeighbors(1, 200, func(w NodeID) bool { plain = append(plain, w); return true })
	var withSlots []NodeID
	a.CommonNeighborsWithSlots(1, 200, func(w NodeID, su, sv int32) bool {
		withSlots = append(withSlots, w)
		if want := a.SlotOf(NewEdge(1, w)); su != want {
			t.Fatalf("su of %d = %d, want %d", w, su, want)
		}
		if want := a.SlotOf(NewEdge(200, w)); sv != want {
			t.Fatalf("sv of %d = %d, want %d", w, sv, want)
		}
		return true
	})
	if len(plain) != len(withSlots) || len(plain) != 3 {
		t.Fatalf("enumerations differ: %v vs %v", plain, withSlots)
	}
	for i := range plain {
		if plain[i] != withSlots[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, plain, withSlots)
		}
	}
}

func TestAdjacencyCloneIntoReuse(t *testing.T) {
	a := NewAdjacency()
	for v := NodeID(2); v < 40; v++ {
		a.AddWithSlot(NewEdge(1, v), int32(v))
	}
	c1 := a.Clone()
	// Mutate the original; refresh a recycled clone and verify it matches.
	a.Remove(NewEdge(1, 5))
	a.AddWithSlot(NewEdge(2, 3), 99)
	c2 := a.CloneInto(c1)
	if c2.NumEdges() != a.NumEdges() {
		t.Fatalf("recycled clone has %d edges, want %d", c2.NumEdges(), a.NumEdges())
	}
	if got := c2.SlotOf(NewEdge(2, 3)); got != 99 {
		t.Fatalf("recycled clone slot = %d, want 99", got)
	}
	if c2.Has(NewEdge(1, 5)) {
		t.Fatal("recycled clone kept a removed edge")
	}
	// Clone independence: mutating the source does not touch the clone.
	a.Remove(NewEdge(1, 7))
	if !c2.Has(NewEdge(1, 7)) {
		t.Fatal("clone lost an edge when the source changed")
	}
}

// requireSlotEnds checks the endpoint pass against a lookup of every live
// edge: ends[s] must hold the dense ids of U and V for the edge carrying
// slot s, and the entries of slots no edge carries must keep the sentinel
// they started with.
func requireSlotEnds(t *testing.T, what string, a *Adjacency, live map[Edge]int32, arena int) {
	t.Helper()
	ends := make([][2]int32, arena)
	for s := range ends {
		ends[s] = [2]int32{-1, -1}
	}
	a.SlotEnds(ends)
	carried := make([]bool, arena)
	for e, s := range live {
		carried[s] = true
		iu, oku := a.lookup(e.U)
		iv, okv := a.lookup(e.V)
		if !oku || !okv || ends[s] != [2]int32{iu, iv} {
			t.Fatalf("%s: edge %v at slot %d: ends %v, lookup (%d, %d)", what, e, s, ends[s], iu, iv)
		}
	}
	for s, c := range carried {
		if !c && ends[s] != [2]int32{-1, -1} {
			t.Fatalf("%s: slot %d carries no edge but ends[%d] = %v", what, s, s, ends[s])
		}
	}
}

// TestSlotEndsMatchLookup runs the endpoint pass after insert/evict/delete
// churn that recycles dense ids and arena-like slots, after BuildAdjacency,
// after RestoreAdjacency, and on clones, over node ids that include 0 and
// the largest NodeID.
func TestSlotEndsMatchLookup(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := randx.New(seed)
		node := func() NodeID {
			switch rng.Intn(12) {
			case 0:
				return 0
			case 1:
				return 0xFFFFFFFF
			}
			return NodeID(1 + rng.Intn(40))
		}
		a := NewAdjacency()
		live := map[Edge]int32{}
		var order []Edge // live edges, oldest first: the "eviction" order
		var free []int32 // recycled slots, as a heap arena recycles them
		arena := 0
		for step := range 600 {
			u, v := node(), node()
			switch {
			case u != v && rng.Intn(3) > 0:
				e := NewEdge(u, v)
				if _, in := live[e]; in {
					continue
				}
				s := int32(arena)
				if n := len(free); n > 0 {
					s, free = free[n-1], free[:n-1]
				} else {
					arena++
				}
				a.AddWithSlot(e, s)
				live[e] = s
				order = append(order, e)
			case len(order) > 0:
				// Evict the oldest edge, or delete a random one.
				i := 0
				if rng.Intn(2) == 0 {
					i = rng.Intn(len(order))
				}
				e := order[i]
				order = append(order[:i], order[i+1:]...)
				a.Remove(e)
				free = append(free, live[e])
				delete(live, e)
			}
			if step%50 == 0 {
				requireSlotEnds(t, "churn", a, live, arena)
			}
		}
		requireSlotEnds(t, "churn", a, live, arena)

		c := a.Clone()
		requireSlotEnds(t, "clone", c, live, arena)
		a.Remove(order[0]) // the clone is independent of its source
		requireSlotEnds(t, "clone after source change", c, live, arena)
		delete(live, order[0])
		order = order[1:]
		requireSlotEnds(t, "recycled clone", a.CloneInto(c), live, arena)

		r, err := RestoreAdjacency(exportDenseCopy(a))
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		requireSlotEnds(t, "restore", r, live, arena)

		edges := slices.Clone(order)
		slots := make([]int32, len(edges))
		for i, e := range edges {
			slots[i] = live[e]
		}
		requireSlotEnds(t, "build", BuildAdjacency(edges, slots, a.NumNodes()), live, arena)
	}
}
