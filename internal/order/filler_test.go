package order

import (
	"reflect"
	"slices"
	"testing"

	"gps/internal/graph"
	"gps/internal/randx"
)

// TestFillerMatchesPush checks Filler against the loop it replaces in a
// merge: Contains, then Push when absent. Offers arrive in non-increasing
// priority with ties and repeated keys, at table sizes that do and do not
// grow; the filled heap must equal the pushed one in every internal array
// and keep behaving identically under later pushes and pops.
func TestFillerMatchesPush(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		n := 1 + rng.Intn(300)
		offers := make([]Entry, n)
		for i := range offers {
			// A small key space repeats keys; a coarse priority grid ties them.
			u := graph.NodeID(rng.Intn(30))
			offers[i] = Entry{
				Edge:     graph.NewEdge(u, u+1+graph.NodeID(rng.Intn(30))),
				Weight:   1 + rng.Float64(),
				Priority: float64(1 + rng.Intn(40)),
				TriCov:   rng.Float64(),
			}
		}
		slices.SortStableFunc(offers, func(a, b Entry) int {
			switch {
			case a.Priority > b.Priority:
				return -1
			case a.Priority < b.Priority:
				return 1
			}
			return 0
		})
		hint := rng.Intn(2 * n) // below the stored count, the key table grows
		pushed, filled := NewHeap(hint), NewHeap(hint)
		fill := filled.Filler(n)
		for i := range offers {
			e := &offers[i]
			slot, ok := fill.Offer(e.Edge.Key(), e)
			if pushed.Contains(e.Edge.Key()) {
				if ok {
					t.Fatalf("seed %d: Offer stored duplicate %v", seed, e.Edge)
				}
				continue
			}
			if want := pushed.Push(*e); !ok || slot != want {
				t.Fatalf("seed %d: Offer(%v) = %d,%v, Push slot %d", seed, e.Edge, slot, ok, want)
			}
		}
		fill.Done()
		requireSameHeap(t, filled, pushed)
		for i := 0; i < n/2; i++ {
			if i%3 == 0 {
				e := Entry{Edge: graph.NewEdge(graph.NodeID(100+i), 1000), Weight: 1, Priority: rng.Float64() * 50}
				filled.Push(e)
				pushed.Push(e)
			} else if a, b := filled.PopMin(), pushed.PopMin(); a != b {
				t.Fatalf("seed %d: PopMin %v != %v", seed, a, b)
			}
		}
		requireSameHeap(t, filled, pushed)
	}
}

func requireSameHeap(t *testing.T, a, b *Heap) {
	t.Helper()
	if !slices.Equal(a.arena, b.arena) || !slices.Equal(a.freed, b.freed) ||
		!slices.Equal(a.heap, b.heap) || !slices.Equal(a.pos, b.pos) {
		t.Fatal("heap arrays differ")
	}
	if !reflect.DeepEqual(a.tab, b.tab) {
		t.Fatal("key tables differ")
	}
}
