package core

import "gps/internal/graph"

// This file extends post-stream estimation beyond triangles and wedges to
// the other motif families the paper's introduction names ("triangles,
// cliques, stars", §1). Both estimators are direct applications of
// Theorem 2: sum the Horvitz-Thompson product Ŝ_J over every member of the
// family found inside the sample. Like EstimatePost they read 1/q from the
// slot table, test membership by merging sorted runs, and run in fixed
// chunks (forChunks) whose partials are summed in chunk order.

// EstimateCliques4Post returns the unbiased estimate of the number of
// 4-cliques whose edges have all arrived. Each 4-clique found in the
// reservoir contributes the product of its six edges' inverse inclusion
// probabilities; the enumeration anchors each clique at the edge joining its
// two smallest vertices, so every clique is counted exactly once.
//
// Estimator variance grows with the sixth power of the inverse probabilities,
// so 4-clique estimation wants denser samples than triangle counting (see
// examples/retrospective). For per-clique uncertainty, feed the edge sets to
// Sampler.SubgraphVariance / SubgraphCovariance.
func EstimateCliques4Post(s *Sampler) float64 {
	n := s.res.Len()
	inv, _ := s.slotInvProbs()
	totals := make([]float64, chunkCount(n, edgeChunk))
	forChunks(n, edgeChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			total := 0.0
			for i := lo; i < hi; i++ {
				total += s.cliques4At(s.res.heap.SlotAt(i), inv)
			}
			totals[c] = total
		}
	})
	return sumInOrder(totals)
}

// sumInOrder returns the sum of the chunk totals, in chunk order.
func sumInOrder(totals []float64) float64 {
	total := 0.0
	for _, t := range totals {
		total += t
	}
	return total
}

// cliques4At sums Ŝ over the 4-cliques anchored at the edge k = (u,v)
// (u < v) stored at the given heap slot: pairs of common neighbors w < x,
// both greater than v, joined by a sampled edge. Candidates arrive in
// ascending order with the slots of their two rim edges, so the pair loop's
// membership test (w,x) is a monotone merge of w's neighbor run against the
// remaining candidates — no hash probes anywhere.
func (s *Sampler) cliques4At(slot int32, inv []float64) float64 {
	k := s.res.entryAt(slot).Edge
	u, v := k.U, k.V // canonical: u < v
	invQ := inv[slot]
	type cand struct {
		node graph.NodeID
		inv  float64 // (q(u,w)·q(v,w))⁻¹
	}
	var cands []cand
	s.res.commonNeighborsWithSlots(u, v, func(w graph.NodeID, su, sv int32) bool {
		if w > v {
			cands = append(cands, cand{node: w, inv: inv[su] * inv[sv]})
		}
		return true
	})
	if len(cands) < 2 {
		return 0
	}
	total := 0.0
	for i := 0; i < len(cands); i++ {
		w := cands[i].node
		invW := cands[i].inv
		nw, sw := s.res.neighborRun(w)
		jw := 0
		for j := i + 1; j < len(cands); j++ {
			x := cands[j].node
			for jw < len(nw) && nw[jw] < x {
				jw++
			}
			if jw >= len(nw) || nw[jw] != x {
				continue
			}
			total += invQ * invW * cands[j].inv * inv[sw[jw]]
		}
	}
	return total
}

// EstimateStars3Post returns the unbiased estimate of the number of 3-stars
// (claws): Σ_v C(deg(v), 3). For each sampled node the estimator needs the
// third elementary symmetric polynomial e3 of the inverse probabilities of
// its incident edges — every unordered triple of edges at v is a 3-star with
// estimator Ŝ = Π 1/q — which Newton's identity evaluates from power sums
// in O(deg(v)):
//
//	e3 = (p1³ − 3·p1·p2 + 2·p3) / 6,  p_r = Σ_j (1/q_j)^r
//
// Wedges are the k=2 case of the same family (e2 = (p1²−p2)/2); this
// estimator extends the paper's framework one motif further. The scan runs
// over the adjacency's dense-id space in fixed chunks; each node's incident
// inverse probabilities are slot-run array reads.
func EstimateStars3Post(s *Sampler) float64 {
	n := s.res.adj.DenseLen()
	inv, _ := s.slotInvProbs()
	totals := make([]float64, chunkCount(n, ownerChunk))
	forChunks(n, ownerChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			total := 0.0
			for id := lo; id < hi; id++ {
				_, _, slots := s.res.adj.RunAt(id)
				if len(slots) == 0 {
					continue // freed dense id
				}
				var p1, p2, p3 float64
				for _, sl := range slots {
					x := inv[sl]
					p1 += x
					x2 := x * x
					p2 += x2
					p3 += x2 * x
				}
				total += (p1*p1*p1 - 3*p1*p2 + 2*p3) / 6
			}
			totals[c] = total
		}
	})
	return sumInOrder(totals)
}

// adjNodes iterates the sampled nodes (helper for motif estimator tests).
func (r *Reservoir) adjNodes(fn func(graph.NodeID) bool) {
	r.adj.ForEachNode(fn)
}
