package order

import (
	"sort"
	"testing"
	"testing/quick"

	"gps/internal/graph"
	"gps/internal/randx"
)

func edgeFor(i int) graph.Edge {
	return graph.NewEdge(graph.NodeID(i), graph.NodeID(i+1<<20))
}

func TestPushPopOrdered(t *testing.T) {
	h := NewHeap(8)
	prios := []float64{5, 1, 4, 2, 3, 0.5, 9, 7}
	for i, p := range prios {
		h.Push(Entry{Edge: edgeFor(i), Priority: p, Weight: 1})
	}
	if h.Len() != len(prios) {
		t.Fatalf("Len = %d", h.Len())
	}
	sorted := append([]float64(nil), prios...)
	sort.Float64s(sorted)
	for _, want := range sorted {
		if got := h.Min().Priority; got != want {
			t.Fatalf("Min priority %v, want %v", got, want)
		}
		if got := h.PopMin().Priority; got != want {
			t.Fatalf("PopMin priority %v, want %v", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len after draining = %d", h.Len())
	}
}

func TestMinEmpty(t *testing.T) {
	h := NewHeap(0)
	if h.Min() != nil {
		t.Fatal("Min on empty heap != nil")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PopMin on empty heap did not panic")
		}
	}()
	NewHeap(0).PopMin()
}

func TestDuplicatePushPanics(t *testing.T) {
	h := NewHeap(2)
	h.Push(Entry{Edge: edgeFor(1), Priority: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	h.Push(Entry{Edge: edgeFor(1), Priority: 2})
}

func TestGetAndContains(t *testing.T) {
	h := NewHeap(4)
	e := edgeFor(3)
	h.Push(Entry{Edge: e, Priority: 2.5, Weight: 7})
	if !h.Contains(e.Key()) {
		t.Fatal("Contains = false after Push")
	}
	ent := h.Get(e.Key())
	if ent == nil || ent.Weight != 7 || ent.Priority != 2.5 {
		t.Fatalf("Get = %+v", ent)
	}
	if h.Get(edgeFor(99).Key()) != nil {
		t.Fatal("Get of absent key != nil")
	}
	h.PopMin()
	if h.Contains(e.Key()) {
		t.Fatal("Contains = true after PopMin")
	}
}

func TestGetTracksMovedEntries(t *testing.T) {
	// Push many entries, pop a few, and verify the index still resolves
	// every surviving edge to the right entry.
	h := NewHeap(64)
	rng := randx.New(1)
	for i := 0; i < 64; i++ {
		h.Push(Entry{Edge: edgeFor(i), Priority: rng.Float64(), Weight: float64(i)})
	}
	for i := 0; i < 20; i++ {
		h.PopMin()
	}
	for i := 0; i < h.Len(); i++ {
		ent := h.At(i)
		got := h.Get(ent.Edge.Key())
		if got != ent {
			t.Fatalf("index mismatch for %v", ent.Edge)
		}
	}
}

func TestCovarianceAccumulatorsSurviveSifts(t *testing.T) {
	h := NewHeap(16)
	rng := randx.New(2)
	for i := 0; i < 16; i++ {
		h.Push(Entry{Edge: edgeFor(i), Priority: rng.Float64()})
	}
	e := edgeFor(5)
	h.Get(e.Key()).TriCov = 42
	h.Get(e.Key()).WedgeCov = 7
	// Force structural churn.
	for i := 100; i < 110; i++ {
		h.Push(Entry{Edge: edgeFor(i), Priority: rng.Float64()})
		h.PopMin()
	}
	if ent := h.Get(e.Key()); ent != nil && (ent.TriCov != 42 || ent.WedgeCov != 7) {
		t.Fatalf("accumulators corrupted: %+v", ent)
	}
}

func checkInvariant(t *testing.T, h *Heap) {
	t.Helper()
	for i := 1; i < h.Len(); i++ {
		parent := int32(i-1) / 2
		if h.prio(parent) > h.prio(int32(i)) {
			t.Fatalf("heap invariant broken at %d", i)
		}
	}
	for _, slot := range h.heap {
		key := h.arena[slot].Edge.Key()
		if got, ok := h.tab.Get(key); !ok || got != slot {
			t.Fatalf("index invariant broken for key %d", key)
		}
	}
	if h.tab.Len() != h.Len() {
		t.Fatalf("index size %d != heap size %d", h.tab.Len(), h.Len())
	}
	if len(h.arena) != h.Len()+len(h.freed) {
		t.Fatalf("arena size %d != live %d + freed %d", len(h.arena), h.Len(), len(h.freed))
	}
}

func TestInvariantUnderRandomOps(t *testing.T) {
	f := func(seed uint64, opsRaw []bool) bool {
		h := NewHeap(8)
		rng := randx.New(seed)
		next := 0
		for _, push := range opsRaw {
			if push || h.Len() == 0 {
				h.Push(Entry{Edge: edgeFor(next), Priority: rng.Float64()})
				next++
			} else {
				h.PopMin()
			}
		}
		for i := 1; i < h.Len(); i++ {
			parent := int32(i-1) / 2
			if h.prio(parent) > h.prio(int32(i)) {
				return false
			}
		}
		return h.tab.Len() == h.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPopYieldsSortedSequence(t *testing.T) {
	h := NewHeap(256)
	rng := randx.New(3)
	for i := 0; i < 256; i++ {
		h.Push(Entry{Edge: edgeFor(i), Priority: rng.Float64()})
	}
	checkInvariant(t, h)
	prev := -1.0
	for h.Len() > 0 {
		p := h.PopMin().Priority
		if p < prev {
			t.Fatalf("pops out of order: %v after %v", p, prev)
		}
		prev = p
	}
}

func TestZeroKeyGuard(t *testing.T) {
	// Key 0 doubles as the index's empty-bucket marker; it must never be
	// reported present or corrupt the table, and pushing a zero-value Edge
	// (only constructible outside graph.NewEdge) must panic loudly.
	h := NewHeap(4)
	if h.Contains(0) || h.Get(0) != nil {
		t.Fatal("zero key reported present on empty heap")
	}
	h.Push(Entry{Edge: edgeFor(1), Priority: 1})
	if h.Contains(0) || h.Get(0) != nil {
		t.Fatal("zero key reported present on populated heap")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Push of zero-value edge did not panic")
		}
	}()
	h.Push(Entry{Priority: 2})
}

func TestIndexSurvivesChurn(t *testing.T) {
	// Long interleaved Push/PopMin runs exercise the open-addressing
	// table's backward-shift deletion: every surviving key must stay
	// resolvable after arbitrarily many deletions (no tombstone decay),
	// and recycled arena slots must never alias live entries.
	h := NewHeap(4)
	rng := randx.New(7)
	live := map[uint64]float64{} // key → weight
	next := 0
	for step := 0; step < 20000; step++ {
		if rng.Float64() < 0.55 || h.Len() == 0 {
			e := edgeFor(next)
			w := float64(next)
			next++
			h.Push(Entry{Edge: e, Priority: rng.Float64(), Weight: w})
			live[e.Key()] = w
		} else {
			popped := h.PopMin()
			delete(live, popped.Edge.Key())
		}
	}
	if h.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(live))
	}
	for key, w := range live {
		ent := h.Get(key)
		if ent == nil {
			t.Fatalf("live key %d unresolvable after churn", key)
		}
		if ent.Weight != w {
			t.Fatalf("key %d resolves to weight %v, want %v", key, ent.Weight, w)
		}
	}
	checkInvariant(t, NewHeap(0)) // sanity: helper works on empty heap
	checkInvariant(t, h)
}

func TestArenaSlotRecycling(t *testing.T) {
	// A full/evict steady state (the sampler's regime) must not grow the
	// arena: each PopMin frees the slot the next Push reuses.
	h := NewHeap(64)
	rng := randx.New(11)
	for i := 0; i < 64; i++ {
		h.Push(Entry{Edge: edgeFor(i), Priority: 1 + rng.Float64()})
	}
	grew := len(h.arena)
	for i := 64; i < 5000; i++ {
		h.Push(Entry{Edge: edgeFor(i), Priority: 1 + rng.Float64()})
		h.PopMin()
	}
	if len(h.arena) > grew+1 {
		t.Fatalf("arena grew from %d to %d under steady state", grew, len(h.arena))
	}
}

func BenchmarkPushPop(b *testing.B) {
	h := NewHeap(1 << 12)
	rng := randx.New(1)
	for i := 0; i < 1<<12; i++ {
		h.Push(Entry{Edge: edgeFor(i), Priority: rng.Float64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(Entry{Edge: edgeFor(1<<12 + i), Priority: rng.Float64()})
		h.PopMin()
	}
}
