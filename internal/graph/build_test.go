package graph

import (
	"slices"
	"testing"

	"gps/internal/randx"
)

// TestBuildAdjacencyMatchesAddWithSlot checks the bulk build against the
// sequential one: the same dense ids, runs and slots; a lossless
// ExportDense → RestoreAdjacency round trip; and identical evolution under
// later adds and removes, which must reallocate the full-cap CSR runs they
// grow rather than clobber a neighbor's run.
func TestBuildAdjacencyMatchesAddWithSlot(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		nodes := 2 + rng.Intn(60)
		seen := map[Edge]bool{}
		var edges []Edge
		var slots []int32
		for i := rng.Intn(4 * nodes); i > 0; i-- {
			a, b := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
			if a == b || seen[NewEdge(a, b)] {
				continue
			}
			seen[NewEdge(a, b)] = true
			edges = append(edges, NewEdge(a, b))
			slots = append(slots, int32(rng.Intn(1000)))
		}
		seq := NewAdjacency()
		for i, e := range edges {
			seq.AddWithSlot(e, slots[i])
		}
		bulk := BuildAdjacency(edges, slots, int(seed%3)*nodes/2) // hints of 0, ½ and 1× the nodes
		requireSameDense(t, bulk, seq)

		restored, err := RestoreAdjacency(exportDenseCopy(bulk))
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		requireSameDense(t, restored, seq)

		for i := 0; i < 3*nodes; i++ {
			a, b := NodeID(rng.Intn(nodes+5)), NodeID(rng.Intn(nodes+5))
			if a == b {
				continue
			}
			e := NewEdge(a, b)
			if rng.Intn(3) == 0 {
				if bulk.Remove(e) != seq.Remove(e) {
					t.Fatalf("seed %d: Remove(%v) disagrees", seed, e)
				}
			} else if bulk.AddWithSlot(e, int32(i)) != seq.AddWithSlot(e, int32(i)) {
				t.Fatalf("seed %d: AddWithSlot(%v) disagrees", seed, e)
			}
		}
		requireSameDense(t, bulk, seq)
	}
}

func requireSameDense(t *testing.T, a, b *Adjacency) {
	t.Helper()
	an, af, anb, asl := a.ExportDense()
	bn, bf, bnb, bsl := b.ExportDense()
	if !slices.Equal(af, bf) || !slices.EqualFunc(anb, bnb, slices.Equal) || !slices.EqualFunc(asl, bsl, slices.Equal) {
		t.Fatal("dense free lists or runs differ")
	}
	for id := range an {
		if len(anb[id]) > 0 && an[id] != bn[id] {
			t.Fatalf("dense id %d holds node %d, want %d", id, an[id], bn[id])
		}
	}
	if len(an) != len(bn) || a.NumEdges() != b.NumEdges() || a.NumNodes() != b.NumNodes() {
		t.Fatalf("sizes differ: %d/%d/%d vs %d/%d/%d",
			len(an), a.NumEdges(), a.NumNodes(), len(bn), b.NumEdges(), b.NumNodes())
	}
}
