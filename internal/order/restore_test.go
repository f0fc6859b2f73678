package order

import (
	"testing"

	"gps/internal/graph"
	"gps/internal/randx"
)

// churnHeap builds a heap that has seen pushes and pops, so the arena holds
// freed slots and the free list is non-trivial.
func churnHeap(t *testing.T) *Heap {
	t.Helper()
	h := NewHeap(16)
	rng := randx.New(7)
	for i := 0; i < 400; i++ {
		e := graph.NewEdge(graph.NodeID(i), graph.NodeID(i+1+int(rng.Uint64n(50))))
		if h.Contains(e.Key()) {
			continue
		}
		h.Push(Entry{Edge: e.At(1 + rng.Uint64n(1<<20)), Weight: 1 + rng.Float64(), Priority: rng.Uniform01() * 100})
		if h.Len() > 32 {
			h.PopMin()
		}
	}
	return h
}

// exportCopy deep-copies the exported state (with freed entries normalized
// to zero, as an encoder would) so RestoreHeap can take ownership.
func exportCopy(h *Heap) (arena []Entry, freed, heapOrder []int32) {
	a, f, ho := h.ExportState()
	arena = append([]Entry(nil), a...)
	freed = append([]int32(nil), f...)
	heapOrder = append([]int32(nil), ho...)
	for _, slot := range freed {
		arena[slot] = Entry{}
	}
	return arena, freed, heapOrder
}

// TestRestoreHeapRoundTrip verifies a restored heap is observably identical:
// same length, same min sequence, same lookups, and it keeps evolving.
func TestRestoreHeapRoundTrip(t *testing.T) {
	h := churnHeap(t)
	restored, err := RestoreHeap(exportCopy(h))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != h.Len() || restored.ArenaLen() != h.ArenaLen() {
		t.Fatalf("len %d/%d vs %d/%d", restored.Len(), restored.ArenaLen(), h.Len(), h.ArenaLen())
	}
	for i := 0; i < h.Len(); i++ {
		if h.SlotAt(i) != restored.SlotAt(i) {
			t.Fatalf("heap position %d: slot %d vs %d", i, h.SlotAt(i), restored.SlotAt(i))
		}
		key := h.At(i).Edge.Key()
		if got := restored.Get(key); got == nil || *got != *h.Get(key) {
			t.Fatalf("entry for key %#x differs", key)
		}
	}
	// Both must evolve identically from here.
	for h.Len() > 0 {
		a, b := h.PopMin(), restored.PopMin()
		if a != b {
			t.Fatalf("PopMin diverged: %+v vs %+v", a, b)
		}
	}
}

// TestRestoreHeapRejectsCorruption feeds RestoreHeap every class of broken
// state a corrupted checkpoint could produce.
func TestRestoreHeapRejectsCorruption(t *testing.T) {
	base := func() (arena []Entry, freed, heapOrder []int32) {
		return exportCopy(churnHeap(t))
	}
	cases := []struct {
		name   string
		break_ func(arena []Entry, freed, heapOrder []int32) ([]Entry, []int32, []int32)
	}{
		{"slot out of range", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			ho[0] = int32(len(a))
			return a, f, ho
		}},
		{"negative slot", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			ho[1] = -1
			return a, f, ho
		}},
		{"duplicate slot", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			ho[0] = ho[1]
			return a, f, ho
		}},
		{"freed and live overlap", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			f[0] = ho[0]
			return a, f, ho
		}},
		{"bad partition", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			return a, f[:len(f)-1], ho
		}},
		{"non-zero freed entry", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			a[f[0]].Weight = 1
			return a, f, ho
		}},
		{"non-canonical edge", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			e := &a[ho[0]].Edge
			e.U, e.V = e.V, e.U
			return a, f, ho
		}},
		{"zero weight", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			a[ho[0]].Weight = 0
			return a, f, ho
		}},
		{"NaN priority", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			a[ho[2]].Priority = nan()
			return a, f, ho
		}},
		{"heap property violated", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			a[ho[0]].Priority = a[ho[1]].Priority + a[ho[2]].Priority + 1e9
			return a, f, ho
		}},
		{"duplicate edge", func(a []Entry, f, ho []int32) ([]Entry, []int32, []int32) {
			a[ho[1]].Edge = a[ho[0]].Edge
			a[ho[1]].Priority = a[ho[0]].Priority
			return a, f, ho
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RestoreHeap(tc.break_(base())); err == nil {
				t.Fatal("corrupted state accepted")
			}
		})
	}
}

func nan() float64 { z := 0.0; return z / z }
