package graph

import "gps/internal/randx"

// KeyTable is an open-addressing hash table from non-zero uint64 keys to
// int32 values, using linear probing with backward-shift deletion (no
// tombstones). Key 0 marks an empty bucket and can never be stored.
//
// It is the one hash table of the sampler's hot paths. The reservoir heap
// indexes its arena slots by edge key (order.Heap), which is never 0 for a
// canonical edge (U < V forces V ≥ 1), and Adjacency interns node v under
// the key uint64(v)+1, because node 0 is a valid node. Keys and values live
// in two flat arrays, so a copy is two memory copies with no rehashing, and
// steady-state insert/delete cycles allocate nothing.
//
// The zero value is not usable; call Init first.
type KeyTable struct {
	keys []uint64
	vals []int32
	used int
	mask uint64
}

// hashKey mixes the key with the splitmix64 finalizer so that structured
// keys (U<<32|V edge keys, dense node ids) spread over the low bits used
// for bucketing.
func hashKey(k uint64) uint64 { return randx.Mix64(k) }

// Init empties the table and sizes it for hint keys without growing: the
// size growth from empty would reach for hint keys.
func (t *KeyTable) Init(hint int) {
	size := 16
	for 3*size < 4*hint {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.used = 0
	t.mask = uint64(size - 1)
}

// Len returns the number of stored keys.
func (t *KeyTable) Len() int { return t.used }

// CloneInto makes dst an exact copy of t, bucket layout included, reusing
// dst's arrays when their capacity suffices.
func (t *KeyTable) CloneInto(dst *KeyTable) {
	// The probe sequence wraps with mask, so the arrays must have exactly
	// the source's length; append onto [:0] guarantees that while keeping
	// any larger recycled capacity.
	dst.keys = append(dst.keys[:0], t.keys...)
	dst.vals = append(dst.vals[:0], t.vals...)
	dst.used = t.used
	dst.mask = t.mask
}

// Get returns the value stored under key and whether key is present.
func (t *KeyTable) Get(key uint64) (int32, bool) {
	if key == 0 {
		return 0, false // 0 marks empty buckets and is never stored
	}
	i := hashKey(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Put stores key → val. key must be non-zero and absent.
func (t *KeyTable) Put(key uint64, val int32) {
	if 4*(t.used+1) > 3*len(t.keys) {
		t.grow()
	}
	i := hashKey(key) & t.mask
	for t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = key
	t.vals[i] = val
	t.used++
}

// PutIfAbsent stores key → val unless key is present. It returns the value
// key maps to afterwards (val when it stored) and whether it stored. It
// probes the chain once and leaves the table exactly as Get followed by Put
// would. key must be non-zero.
func (t *KeyTable) PutIfAbsent(key uint64, val int32) (int32, bool) {
	i := hashKey(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], false
		}
		if k == 0 {
			break
		}
		i = (i + 1) & t.mask
	}
	if 4*(t.used+1) > 3*len(t.keys) {
		t.Put(key, val) // grows first, then probes the resized table
		return val, true
	}
	t.keys[i] = key
	t.vals[i] = val
	t.used++
	return val, true
}

func (t *KeyTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	size := 2 * len(oldKeys)
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := hashKey(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
	}
}

// Del removes key if present, using backward-shift deletion: subsequent
// probe-chain members whose home bucket precedes the vacated one are
// shifted back so that every surviving key stays reachable without
// tombstones.
func (t *KeyTable) Del(key uint64) {
	if key == 0 {
		return // 0 marks empty buckets and is never stored
	}
	i := hashKey(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			break
		}
		if k == 0 {
			return // absent; nothing to delete
		}
		i = (i + 1) & t.mask
	}
	t.used--
	j := i
	for {
		t.keys[i] = 0
		for {
			j = (j + 1) & t.mask
			k := t.keys[j]
			if k == 0 {
				return
			}
			home := hashKey(k) & t.mask
			// Shift k back iff its home bucket lies outside the cyclic
			// interval (i, j] — i.e. the vacated bucket i sits between
			// home and j, so probing for k would stop early at i.
			if cyclicBetween(home, i, j) {
				continue
			}
			break
		}
		t.keys[i] = t.keys[j]
		t.vals[i] = t.vals[j]
		i = j
	}
}

// cyclicBetween reports whether lo < x ≤ hi in cyclic bucket order, i.e.
// whether x lies strictly after lo and at or before hi when walking the
// table forward from lo.
func cyclicBetween(x, lo, hi uint64) bool {
	if lo <= hi {
		return lo < x && x <= hi
	}
	return lo < x || x <= hi
}
