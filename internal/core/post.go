package core

// EstimatePost implements Algorithm 2 (GPSEstimate): unbiased post-stream
// estimation of triangle and wedge counts, their variances and their
// covariance, from the current reservoir. It may be called at any point in
// the stream; the reservoir is only read.
//
// The computation is local per sampled edge (§4 "Efficiency"): for edge
// k=(v1,v2) the estimators enumerate the sampled neighborhoods of its
// endpoints, so the whole scan costs O(Σ_k min{deg(v1),deg(v2)}) ⊆ O(m^{3/2})
// and parallelizes over reservoir slots, mirroring the paper's "parallel for"
// loop. Beyond Algorithm 2, the same pass evaluates the triangle–wedge
// covariance of Eq. 12 via a per-edge factorization (see covTW below), which
// Table 1 needs for the post-stream clustering-coefficient intervals.
//
// The scan runs on the slot-indexed fast path: one O(m) pass precomputes
// q(slot) = min{1, w/z*} per heap arena slot (slotProbs), another the
// dense ids of each sampled edge's endpoints (slotEnds), and the inner
// loops then resolve both endpoint runs and every enumerated neighbor and
// triangle edge by array reads — zero hash probes.
// Enumeration and summation order match the lookup-based reference
// (EstimatePostLookup) exactly, so the results are bit-identical, which the
// equality tests assert.
func EstimatePost(s *Sampler) Estimates {
	if s.Decayed() {
		// Forward decay retargets the estimators at the decayed counts: the
		// same scan, with per-motif decay factors (see decay.go).
		return estimatePostDecayed(s)
	}
	n := s.res.Len()
	probs, ends := s.slotProbs(), s.slotEnds()
	workers := estimateWorkers(n)
	parts := make([]partial, workers)
	parallelFor(n, workers, func(w, lo, hi int) {
		// Accumulate on the worker's own stack and publish once: adjacent
		// parts entries never see concurrent writes, so no padding games
		// are needed to avoid false sharing.
		var local partial
		for i := lo; i < hi; i++ {
			local.add(s.estimateEdge(s.res.heap.SlotAt(i), probs, ends))
		}
		parts[w] = local
	})
	return reduceEstimates(parts, n, s.arrivals)
}

// EstimateEdges returns Σ 1/q(k) over the sampled edges: the
// Horvitz-Thompson estimate of the number of edges the sample stands for
// (for a window query's merged sample, the in-window edges). It reads
// q(k) from the slot table, summing in ForEachEdge's order, which fixes
// the floating-point result.
func EstimateEdges(s *Sampler) float64 {
	probs := s.slotProbs()
	adj := s.res.adj
	var total float64
	for id := range adj.DenseLen() {
		u, nbrs, slots := adj.RunAt(id)
		for j, v := range nbrs {
			if u >= v {
				continue // each edge once, from its lower endpoint's run
			}
			if q := probs[slots[j]]; q > 0 {
				total += 1 / q
			}
		}
	}
	return total
}

// reduceEstimates folds per-worker partials (in worker order, so the
// summation is deterministic for a fixed GOMAXPROCS) into the final
// Estimates, applying Algorithm 2's 1/3 and 1/2 multiplicity corrections.
// Both the slot-indexed and the lookup-based scans share it, keeping their
// final reductions bit-identical by construction.
func reduceEstimates(parts []partial, n int, arrivals uint64) Estimates {
	var total partial
	for i := range parts {
		total.nTri += parts[i].nTri
		total.vTri += parts[i].vTri
		total.cTri += parts[i].cTri
		total.nW += parts[i].nW
		total.vW += parts[i].vW
		total.cW += parts[i].cW
		total.covTW += parts[i].covTW
	}
	return Estimates{
		Triangles:        total.nTri / 3,
		Wedges:           total.nW / 2,
		VarTriangles:     total.vTri/3 + total.cTri,
		VarWedges:        total.vW/2 + total.cW,
		CovTriangleWedge: total.covTW,
		SampledEdges:     n,
		Arrivals:         arrivals,
	}
}

// edgeTotals is the per-edge outcome of the Algorithm 2 inner loops.
// Counts and variances are still unnormalized: every triangle is enumerated
// at each of its 3 edges and every wedge at each of its 2 edges; the caller
// applies the 1/3 and 1/2 factors. Covariance sums need no normalization
// because a pair of distinct triangles (or wedges) shares at most one edge,
// so each pair is enumerated at exactly one reservoir edge.
type edgeTotals struct {
	nTri, vTri, cTri float64 // N̂_k(△), V̂_k(△), Ĉ_k(△)
	nW, vW, cW       float64 // N̂_k(Λ), V̂_k(Λ), Ĉ_k(Λ)
	covTW            float64 // edge k's share of V̂(△,Λ), Eq. 12
}

// partial is one worker's accumulator. Workers accumulate locally and
// write their element of the shared parts slice exactly once, so the
// struct needs no cache-line padding.
type partial struct {
	nTri, vTri, cTri float64
	nW, vW, cW       float64
	covTW            float64
}

func (p *partial) add(t edgeTotals) {
	p.nTri += t.nTri
	p.vTri += t.vTri
	p.cTri += t.cTri
	p.nW += t.nW
	p.vW += t.vW
	p.cW += t.cW
	p.covTW += t.covTW
}

// estimateEdge runs Algorithm 2 lines 3-30 for the sampled edge stored at
// the given heap slot and returns the per-edge totals.
//
// Per-edge quantities, with q = q(k) and q1/q2 the probabilities of the
// other edges of each enumerated triangle (k1,k2,k) or wedge (k1,k):
//
//	N̂_k(△)  = Σ_τ∋k (q·q1·q2)⁻¹
//	V̂_k(△)  = Σ_τ∋k (q·q1·q2)⁻¹((q·q1·q2)⁻¹−1)
//	Ĉ_k(△)  = 2·q⁻¹(q⁻¹−1)·Σ_{τ<τ'∋k} (q1q2)⁻¹(q1'q2')⁻¹
//
// and analogously for wedges. For the triangle–wedge covariance (Eq. 12)
// the pair sum over {(τ,λ) : τ∩λ≠∅} factorizes per edge:
//
//	A_k = Σ_{τ∋k} Ŝ_{τ∖k},  B_k = Σ_{λ∋k} Ŝ_{λ∖k}
//	pairs sharing exactly k: q⁻¹(q⁻¹−1)·(A_k·B_k − D_k), where
//	D_k = Σ_{τ∋k} Ŝ_{τ∖k}(1/q1 + 1/q2) removes the wedge⊂triangle pairs,
//	which instead contribute Ŝ_τ(Ŝ_λ−1); each such pair is added once, at
//	the triangle edge opposite the wedge.
//
// Both endpoint runs are read by the dense ids in the endpoint table, and
// every probability from the slot table: the wedge partner's slot rides
// alongside the neighbor id in v1's (and v2's) slot run, and triangle
// detection is a two-pointer merge against v2's run — v1's neighbors arrive
// in ascending order, so a single monotone cursor into v2's sorted run
// replaces the per-neighbor hash probe of the membership test and yields
// the third edge's slot at the match position.
func (s *Sampler) estimateEdge(slot int32, probs []float64, ends [][2]int32) edgeTotals {
	var t edgeTotals
	invQ := 1 / probs[slot]

	// Iterate the smaller endpoint's sampled neighborhood for triangle
	// detection (§3.2 S4); wedges centered at both endpoints are
	// enumerated in their respective loops.
	v1, n1, s1, v2, n2, s2 := s.endpointRuns(slot, ends)
	if len(n1) > len(n2) {
		v1, v2 = v2, v1
		n1, s1, n2, s2 = n2, s2, n1, s1
	}

	var cTriPairs float64 // Σ_{i<j} over triangles at k (running, Algorithm 2 line 15)
	var cWPairs float64   // Σ_{i<j} over wedges at k (lines 20, 28)
	var aK, bK, dK float64
	var subWedge float64

	j := 0 // monotone cursor into v2's run (triangle membership merge)
	for i, v3 := range n1 {
		if v3 == v2 {
			continue // k itself is not a wedge partner
		}
		q1 := probs[s1[i]]
		// Triangle (k1,k2,k) when v3 also neighbors v2.
		for j < len(n2) && n2[j] < v3 {
			j++
		}
		if j < len(n2) && n2[j] == v3 {
			q2 := probs[s2[j]]
			inv12 := 1 / (q1 * q2)
			invAll := invQ * inv12
			t.nTri += invAll
			t.vTri += invAll * (invAll - 1)
			t.cTri += cTriPairs * inv12
			cTriPairs += inv12
			aK += inv12
			dK += inv12 * (1/q1 + 1/q2)
			subWedge += invAll * (inv12 - 1)
		}
		// Wedge (v3,v1,v2) centered at v1.
		invW := invQ / q1
		t.nW += invW
		t.vW += invW * (invW - 1)
		t.cW += cWPairs / q1
		cWPairs += 1 / q1
		bK += 1 / q1
	}
	for i, v3 := range n2 {
		if v3 == v1 {
			continue
		}
		q2 := probs[s2[i]]
		invW := invQ / q2
		t.nW += invW
		t.vW += invW * (invW - 1)
		t.cW += cWPairs / q2
		cWPairs += 1 / q2
		bK += 1 / q2
	}

	// Scale the pair sums into Ĉ_k (Algorithm 2 lines 29-30).
	scale := 2 * invQ * (invQ - 1)
	t.cTri *= scale
	t.cW *= scale
	// Triangle–wedge covariance share of edge k (Eq. 12; see doc comment).
	t.covTW = invQ*(invQ-1)*(aK*bK-dK) + subWedge
	return t
}
