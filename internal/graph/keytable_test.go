package graph

import (
	"testing"

	"gps/internal/randx"
)

// requireSameAsMap checks every key of the model against the table, a few
// absent keys, and the stored count.
func requireSameAsMap(t *testing.T, tab *KeyTable, model map[uint64]int32, absent []uint64) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(model))
	}
	for k, want := range model {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
	for _, k := range absent {
		if _, in := model[k]; in {
			continue
		}
		if got, ok := tab.Get(k); ok {
			t.Fatalf("Get(%#x) = %d for an absent key", k, got)
		}
	}
}

// wrapKeys returns n distinct non-zero keys whose home bucket is the last
// one of a table of the given size, so their probe chain wraps to bucket 0.
func wrapKeys(n, size int) []uint64 {
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if hashKey(k)&uint64(size-1) == uint64(size-1) {
			out = append(out, k)
		}
	}
	return out
}

// TestKeyTableMatchesMap drives the table and a Go map through the same
// random put / putIfAbsent / get / del sequences — from an undersized
// table, so it grows, and over a small key space, so chains form and
// deletions shift keys back across the wrap-around — and checks that a
// CloneInto copy answers like its source and then evolves independently.
func TestKeyTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := randx.New(seed)
		var tab KeyTable
		tab.Init(rng.Intn(8))
		model := map[uint64]int32{}
		// Node keys of the extreme NodeIDs, keys whose chains wrap, and a
		// small random key space.
		pool := []uint64{nodeKey(0), nodeKey(0xFFFFFFFF)}
		pool = append(pool, wrapKeys(6, 16)...)
		for range 40 + rng.Intn(200) {
			pool = append(pool, 1+rng.Uint64()%(1<<40))
		}
		for op := range 2000 {
			k := pool[rng.Intn(len(pool))]
			v := int32(op)
			_, in := model[k]
			switch rng.Intn(4) {
			case 0:
				if !in {
					tab.Put(k, v)
					model[k] = v
				}
			case 1:
				got, stored := tab.PutIfAbsent(k, v)
				if stored == in {
					t.Fatalf("seed %d: PutIfAbsent(%#x) stored=%v with key present=%v", seed, k, stored, in)
				}
				if !in {
					model[k] = v
				}
				if got != model[k] {
					t.Fatalf("seed %d: PutIfAbsent(%#x) = %d, want %d", seed, k, got, model[k])
				}
			case 2:
				got, ok := tab.Get(k)
				if ok != in || got != model[k] {
					t.Fatalf("seed %d: Get(%#x) = %d, %v; want %d, %v", seed, k, got, ok, model[k], in)
				}
			case 3:
				tab.Del(k)
				delete(model, k)
			}
		}
		requireSameAsMap(t, &tab, model, pool)
		if _, ok := tab.Get(0); ok {
			t.Fatal("Get(0) found the empty-bucket marker")
		}
		tab.Del(0) // the marker is never stored: a no-op

		var dst KeyTable
		dst.Init(1 << 12) // a larger recycled table is cut to the source's layout
		tab.CloneInto(&dst)
		requireSameAsMap(t, &dst, model, pool)
		frozen := make(map[uint64]int32, len(model))
		for k, v := range model {
			frozen[k] = v
		}
		for _, k := range pool {
			dst.Del(k)
		}
		requireSameAsMap(t, &tab, frozen, pool)
		requireSameAsMap(t, &dst, map[uint64]int32{}, pool)
	}
}

// TestKeyTableWrapDeletion pins backward-shift deletion on a chain that
// wraps from the last bucket to the first: deleting each member in turn
// must leave every other member reachable.
func TestKeyTableWrapDeletion(t *testing.T) {
	keys := wrapKeys(5, 16)
	for victim := range keys {
		var tab KeyTable
		tab.Init(0)
		model := map[uint64]int32{}
		for i, k := range keys {
			tab.Put(k, int32(i))
			model[k] = int32(i)
		}
		if tab.keys[0] == 0 {
			t.Fatal("chain does not wrap to bucket 0")
		}
		tab.Del(keys[victim])
		delete(model, keys[victim])
		requireSameAsMap(t, &tab, model, keys)
	}
}
