package graph

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
)

// commonNeighborRecords encodes fuzz edge records: a side byte (bit 0
// joins the neighbour to u, bit 1 to v) and a little-endian uint16 offset
// of the neighbour from the base id, wrapping at 2^32.
func commonNeighborRecords(recs ...[2]uint16) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, byte(r[0]))
		out = binary.LittleEndian.AppendUint16(out, r[1])
	}
	return out
}

// FuzzCommonNeighbors checks the run intersection — IntersectRuns over the
// runs NeighborRun returns, and CommonNeighbors, CommonNeighborsWithSlots
// and CountCommonNeighbors built on it — against a map-based intersection
// of u's and v's neighbourhoods: the same members, in ascending order,
// with the slots their edges were added with, and a stop after the first
// member when fn returns false. The seeds cover empty and identical runs
// (u = v), lengths more than 16× apart (the probe path) and runs that mix
// ids near 0 with ids near 2^32−1, where a merge comparing ids by a
// 32-bit difference would step the wrong cursor.
func FuzzCommonNeighbors(f *testing.F) {
	const top = 1<<32 - 1
	f.Add(uint32(1), uint32(2), uint32(100), []byte{})
	f.Add(uint32(1), uint32(2), uint32(100), commonNeighborRecords([2]uint16{1, 3}, [2]uint16{1, 4}))
	f.Add(uint32(7), uint32(7), uint32(0), commonNeighborRecords([2]uint16{1, 3}, [2]uint16{1, 9}, [2]uint16{2, 4}))
	var skewed [][2]uint16
	for x := range uint16(70) {
		skewed = append(skewed, [2]uint16{1, x})
	}
	skewed = append(skewed, [2]uint16{3, 5}, [2]uint16{3, 33})
	f.Add(uint32(top), uint32(top-1), uint32(top-20), commonNeighborRecords(skewed...))
	// Base top-8 wraps offsets 9 and up to ids 0, 1, ...: u's run holds 0
	// where v's holds only ids near 2^32−1, so the merge compares heads
	// more than 2^31 apart.
	f.Add(uint32(3), uint32(top-3), uint32(top-8), commonNeighborRecords([2]uint16{1, 9}, [2]uint16{3, 0}))
	f.Add(uint32(3), uint32(top-3), uint32(top-8), commonNeighborRecords(
		[2]uint16{3, 0}, [2]uint16{3, 7}, [2]uint16{3, 8}, [2]uint16{3, 15}, [2]uint16{1, 9}, [2]uint16{2, 10},
		[2]uint16{1, 14}, [2]uint16{2, 4}))
	f.Add(uint32(0), uint32(top), uint32(0), commonNeighborRecords(
		[2]uint16{3, 1}, [2]uint16{1, 0xFFFF}, [2]uint16{2, 2}, [2]uint16{3, 0xFFFE}))

	f.Fuzz(func(t *testing.T, u, v, base uint32, data []byte) {
		if len(data) > 3<<12 {
			data = data[:3<<12]
		}
		a := NewAdjacency()
		model := map[NodeID]map[NodeID]int32{}
		add := func(p, x NodeID, slot int32) {
			if p == x {
				return
			}
			a.AddWithSlot(NewEdge(p, x), slot)
			for _, h := range [][2]NodeID{{p, x}, {x, p}} {
				if model[h[0]] == nil {
					model[h[0]] = map[NodeID]int32{}
				}
				if _, ok := model[h[0]][h[1]]; !ok {
					model[h[0]][h[1]] = slot
				}
			}
		}
		for i := 0; i+3 <= len(data); i += 3 {
			x := NodeID(base + uint32(binary.LittleEndian.Uint16(data[i+1:])))
			if data[i]&1 != 0 {
				add(NodeID(u), x, int32(i/3))
			}
			if data[i]&2 != 0 {
				add(NodeID(v), x, int32(i/3))
			}
		}

		type hit struct {
			w      NodeID
			su, sv int32
		}
		var want []hit
		for w, su := range model[NodeID(u)] {
			if sv, ok := model[NodeID(v)][w]; ok {
				want = append(want, hit{w, su, sv})
			}
		}
		slices.SortFunc(want, func(x, y hit) int { return cmp.Compare(x.w, y.w) })

		nu, slu := a.NeighborRun(NodeID(u))
		nv, slv := a.NeighborRun(NodeID(v))
		var runs, plain, slotted []hit
		IntersectRuns(nu, nv, func(i, j int) bool {
			if nu[i] != nv[j] {
				t.Fatalf("IntersectRuns paired %d with %d", nu[i], nv[j])
			}
			runs = append(runs, hit{nu[i], slu[i], slv[j]})
			return true
		})
		a.CommonNeighbors(NodeID(u), NodeID(v), func(w NodeID) bool {
			plain = append(plain, hit{w, model[NodeID(u)][w], model[NodeID(v)][w]})
			return true
		})
		a.CommonNeighborsWithSlots(NodeID(u), NodeID(v), func(w NodeID, su, sv int32) bool {
			slotted = append(slotted, hit{w, su, sv})
			return true
		})
		for _, got := range []struct {
			name string
			hits []hit
		}{{"IntersectRuns", runs}, {"CommonNeighbors", plain}, {"CommonNeighborsWithSlots", slotted}} {
			if !slices.Equal(got.hits, want) {
				t.Fatalf("%s(%d, %d) = %v, want %v", got.name, u, v, got.hits, want)
			}
		}
		if n := a.CountCommonNeighbors(NodeID(u), NodeID(v)); n != len(want) {
			t.Fatalf("CountCommonNeighbors(%d, %d) = %d, want %d", u, v, n, len(want))
		}

		if len(want) == 0 {
			return
		}
		calls := 0
		IntersectRuns(nu, nv, func(int, int) bool { calls++; return false })
		a.CommonNeighbors(NodeID(u), NodeID(v), func(NodeID) bool { calls++; return false })
		a.CommonNeighborsWithSlots(NodeID(u), NodeID(v), func(NodeID, int32, int32) bool { calls++; return false })
		if calls != 3 {
			t.Fatalf("fn returning false at once: %d calls over the three routines, want 3", calls)
		}
	})
}
