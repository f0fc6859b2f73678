package core

import "gps/internal/graph"

// LocalTriangles holds per-node triangle count estimates N̂_v(△): for each
// node, the estimated number of triangles containing it. Local triangle
// counts drive spam/anomaly detection and role discovery — the application
// setting of the MASCOT line of work (§7) — and fall out of the same
// Horvitz-Thompson machinery as the global count: each triangle estimator
// Ŝ_τ contributes once to each of its three corners, so Σ_v N̂_v(△) =
// 3·N̂(△) holds identically.
type LocalTriangles map[graph.NodeID]float64

// Total returns Σ_v N̂_v(△) = 3·N̂(△).
func (lt LocalTriangles) Total() float64 {
	total := 0.0
	for _, v := range lt {
		total += v
	}
	return total
}

// EstimateLocalPost computes per-node triangle estimates from the current
// reservoir (the local analogue of EstimatePost). Each sampled edge
// enumerates the triangles it participates in, exactly as in Algorithm 2;
// a triangle enumerated at one of its three edges credits Ŝ_τ/3 to each
// corner, so after the full scan every corner has accumulated Ŝ_τ. Like
// EstimatePost it reads 1/q from the slot table and both endpoint runs by
// dense id, and detects triangles with a two-pointer merge over slot runs.
// The sampled edges are cut into fixed chunks of heap positions, each with
// its own map, merged in chunk order, so the result does not depend on the
// core count.
func EstimateLocalPost(s *Sampler) LocalTriangles {
	n := s.res.Len()
	inv, _ := s.slotInvProbs()
	ends := s.slotEnds()
	parts := make([]LocalTriangles, chunkCount(n, edgeChunk))
	forChunks(n, edgeChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			local := make(LocalTriangles)
			for i := lo; i < hi; i++ {
				s.localEdge(s.res.heap.SlotAt(i), inv, ends, local)
			}
			parts[c] = local
		}
	})
	out := make(LocalTriangles)
	for _, part := range parts {
		for v, c := range part {
			out[v] += c
		}
	}
	return out
}

// localEdge accumulates the corner contributions of the triangles at the
// sampled edge stored at the given heap slot.
func (s *Sampler) localEdge(slot int32, inv []float64, ends [][2]int32, acc LocalTriangles) {
	invQ := inv[slot]
	v1, n1, s1, v2, n2, s2 := s.endpointRuns(slot, ends)
	if len(n1) > len(n2) {
		v1, v2 = v2, v1
		n1, s1, n2, s2 = n2, s2, n1, s1
	}
	j := 0
	for i, v3 := range n1 {
		if v3 == v2 {
			continue
		}
		for j < len(n2) && n2[j] < v3 {
			j++
		}
		if j >= len(n2) || n2[j] != v3 {
			continue
		}
		share := invQ * inv[s1[i]] * inv[s2[j]] / 3
		acc[v1] += share
		acc[v2] += share
		acc[v3] += share
	}
}

// InStreamLocal couples a GPS sampler with in-stream per-node triangle
// estimation: when edge k3 arrives and completes triangles against the
// reservoir, each triangle's snapshot estimate 1/(q1·q2) is credited to its
// three corners (the local version of Theorem 6; each snapshot is counted
// exactly once, at the arrival of the triangle's last edge).
//
// InStreamLocal is not safe for concurrent use.
type InStreamLocal struct {
	s      *Sampler
	counts LocalTriangles
}

// NewInStreamLocal returns an in-stream local triangle estimator with a
// fresh GPS sampler.
func NewInStreamLocal(cfg Config) (*InStreamLocal, error) {
	s, err := NewSampler(cfg)
	if err != nil {
		return nil, err
	}
	return &InStreamLocal{s: s, counts: make(LocalTriangles)}, nil
}

// Sampler exposes the underlying sampler.
func (t *InStreamLocal) Sampler() *Sampler { return t.s }

// Process handles one edge arrival: local snapshots first, then the GPS
// sampling step. A deletion record of a sampled edge retracts the share of
// every triangle the edge still closes in the reservoir, at current
// probabilities and with each corner floored at zero — the approximation
// InStream.retractEstimate documents — before the sampler removes the edge;
// a deletion of an unsampled edge changes no count.
func (t *InStreamLocal) Process(e graph.Edge) bool {
	res := t.s.res
	sampled := res.Contains(e)
	if sampled && !e.Del {
		t.s.duplicates++
		return true
	}
	if sampled || !e.Del {
		res.commonNeighborsWithSlots(e.U, e.V, func(v3 graph.NodeID, su, sv int32) bool {
			q1 := t.s.probForWeight(res.entryAt(su).Weight)
			q2 := t.s.probForWeight(res.entryAt(sv).Weight)
			share := 1 / (q1 * q2)
			for _, v := range [3]graph.NodeID{e.U, e.V, v3} {
				if e.Del {
					t.counts[v] = max(0, t.counts[v]-share)
				} else {
					t.counts[v] += share
				}
			}
			return true
		})
	}
	return t.s.Process(e)
}

// Counts returns the running per-node estimates. The map is live; callers
// that need a stable snapshot must copy it.
func (t *InStreamLocal) Counts() LocalTriangles { return t.counts }
