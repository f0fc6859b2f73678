package core

import (
	"cmp"
	"slices"

	"gps/internal/graph"
)

// EstimatePost implements Algorithm 2 (GPSEstimate): unbiased post-stream
// estimation of triangle and wedge counts, their variances and their
// covariance, from the current reservoir. It may be called at any point in
// the stream; the reservoir is only read. Beyond Algorithm 2, the same pass
// evaluates the triangle–wedge covariance of Eq. 12 via a per-edge
// factorization (see postKernel.edge), which Table 1 needs for the
// post-stream clustering-coefficient intervals. Under forward decay the
// same pass estimates the decayed counts (see decay.go).
//
// The computation is local per sampled edge (§4 "Efficiency"). The scan
// visits each sampled edge k = {u,v} once, at its owner u: the endpoint
// with the longer adjacency run, or the larger NodeID on a tie. Before its
// first owned edge that can close a triangle, the owner marks its
// neighbours in a per-worker array indexed by dense id. Triangle search
// then scans only v's run, the shorter one, against those marks, so it
// costs O(Σ_k min{deg(u),deg(v)}) ⊆ O(m^{3/2}); the same scan adds the
// wedge partners at v. The wedge partners at u come from one pass over u's
// run before its first owned edge: in ascending order of decay, prefix
// sums P1, P2, P3 of the partners' terms and suffix sums S1, S2 of their
// 1/q powers, from which each owned edge k reads X1 = P1 + d_k·S1,
// X2 = P2 + d_k²·S2 and Y = P3 + d_k²·S1 in O(1) (see wedgeSplit). Undecayed,
// run order already is decay order and the pass is O(deg(u)), so the wedge
// sums at owners cost O(m) in all; under decay the pass sorts the run
// first, O(deg(u)·log deg(u)). No loop divides.
//
// Probabilities come from one slot-indexed table of 1/q (slotInvProbs),
// the other endpoint's run and every neighbour's mark position from the
// endpoint table (slotEnds): no hash probes. The owners are cut into fixed
// chunks of dense ids, which up to GOMAXPROCS workers claim, and the
// chunks' partials are summed in chunk order. Dense-id order is part of
// the sample's state (checkpoints carry it), so the result is a function
// of the sample alone: bit-identical on any core count.
func EstimatePost(s *Sampler) Estimates {
	k := s.newPostKernel()
	n := s.res.adj.DenseLen()
	parts := make([]partial, chunkCount(n, ownerChunk))
	forChunks(n, ownerChunk, func() func(c, lo, hi int) {
		w := &postScratch{marks: make([]int32, n)}
		return func(c, lo, hi int) { parts[c] = k.owners(lo, hi, w) }
	})
	return reduceEstimates(parts, s)
}

// EstimateEdges returns Σ 1/q(k) over the sampled edges: the
// Horvitz-Thompson estimate of the number of edges the sample stands for
// (for a window query's merged sample, the in-window edges). It reads
// 1/q(k) from the slot table, summing in ForEachEdge's order, which fixes
// the floating-point result.
func EstimateEdges(s *Sampler) float64 {
	inv, _ := s.slotInvProbs()
	adj := s.res.adj
	var total float64
	for id := range adj.DenseLen() {
		u, nbrs, slots := adj.RunAt(id)
		for j, v := range nbrs {
			if u < v { // each edge once, from its lower endpoint's run
				total += inv[slots[j]]
			}
		}
	}
	return total
}

// reduceEstimates sums the chunk partials in chunk order into the final
// Estimates, applying Algorithm 2's 1/3 and 1/2 multiplicity corrections.
// The scan and its lookup twin in the tests share it, keeping their final
// reductions bit-identical by construction.
func reduceEstimates(parts []partial, s *Sampler) Estimates {
	var total partial
	for i := range parts {
		total.add(edgeTotals(parts[i]))
	}
	est := Estimates{
		Triangles:        total.nTri / 3,
		Wedges:           total.nW / 2,
		VarTriangles:     total.vTri/3 + total.cTri,
		VarWedges:        total.vW/2 + total.cW,
		CovTriangleWedge: total.covTW,
		SampledEdges:     s.res.Len(),
		Arrivals:         s.arrivals,
	}
	if s.Decayed() {
		est.Decayed = true
		est.DecayedEdges = total.edges
		est.DecayHorizon = s.lastTS
	}
	return est
}

// edgeTotals is the per-edge outcome of Algorithm 2's inner loops.
// Counts and variances are still unnormalized: every triangle is enumerated
// at each of its 3 edges and every wedge at each of its 2 edges; the caller
// applies the 1/3 and 1/2 factors. Covariance sums need no normalization
// because a pair of distinct triangles (or wedges) shares at most one edge,
// so each pair is enumerated at exactly one reservoir edge.
type edgeTotals struct {
	nTri, vTri, cTri float64 // N̂_k(△), V̂_k(△), Ĉ_k(△)
	nW, vW, cW       float64 // N̂_k(Λ), V̂_k(Λ), Ĉ_k(Λ)
	covTW            float64 // edge k's share of V̂(△,Λ), Eq. 12
	edges            float64 // d(k)/q(k), the edge's share of DecayedEdges
}

// partial is one chunk's accumulator: the sum of its edges' totals.
type partial edgeTotals

func (p *partial) add(t edgeTotals) {
	p.nTri += t.nTri
	p.vTri += t.vTri
	p.cTri += t.cTri
	p.nW += t.nW
	p.vW += t.vW
	p.cW += t.cW
	p.covTW += t.covTW
	p.edges += t.edges
}

// postKernel is one Algorithm 2 pass's read-only view of the sample: the
// adjacency runs and three slot-indexed tables. All workers share it.
type postKernel struct {
	adj            *graph.Adjacency
	ends           [][2]int32 // dense ids of each edge's endpoints (slotEnds)
	inv, invByMark []float64  // 1/q(k) by slot and by mark (slotInvProbs)
	// d(k) by slot and by mark (slotDecays); nil when undecayed.
	decays, decayByMark []float64
	// visit, when set, is called with the slot of every edge its owner
	// takes up, and with -1 after each owner has cleared its marks. It is
	// a test hook: production leaves it nil.
	visit func(slot int32)
}

func (s *Sampler) newPostKernel() *postKernel {
	k := &postKernel{adj: s.res.adj, ends: s.slotEnds()}
	k.inv, k.invByMark = s.slotInvProbs()
	if s.Decayed() {
		k.decays, k.decayByMark = s.slotDecays()
	}
	return k
}

// owns reports whether the endpoint u, with a run of du neighbours, owns
// its edge to v, whose run has dv: the longer run owns the edge, the larger
// NodeID on a tie.
func owns(du int, u graph.NodeID, dv int, v graph.NodeID) bool {
	return du > dv || du == dv && u > v
}

// other returns the dense id of the endpoint of the edge at slot that is
// not id: the endpoint table holds both, and id is one of them.
func (k *postKernel) other(slot, id int32) int32 {
	e := k.ends[slot]
	return e[0] ^ e[1] ^ id
}

// postScratch is one Algorithm 2 worker's scratch, reused by every owner
// of every chunk the worker claims.
type postScratch struct {
	// marks has one entry per dense id, zero between owners: while an owner
	// u is handled, marks[w] holds the slot of the edge {u,w} plus one for
	// every neighbour w of u.
	marks []int32
	// split and order have one entry per position of the current owner's
	// run; they grow to the longest run the worker meets. order is used
	// only under decay.
	split []wedgeSplit
	order []int32
}

// wedgeSplit holds the power sums of the wedge partners at the owner u of
// one edge k = {u,v} of u's run: every other edge j of u. Ordered by
// ascending decay, ties in run order, the partners before k have
// d_j ≤ d_k and those after it d_j ≥ d_k, so min(d_k, d_j) is d_j before k
// and d_k after it, and x_j = min(d_k, d_j)/q_j splits into
//
//	X1 = P1 + d_k·S1,  X2 = P2 + d_k²·S2,  Y = P3 + d_k²·S1
//
// with the prefix sums P1 = Σ d_j/q_j, P2 = Σ (d_j/q_j)², P3 = Σ d_j²/q_j
// over the partners before k and the suffix sums S1 = Σ 1/q_j,
// S2 = Σ 1/q_j² over those after it. Each is a sum of its own terms, not a
// run total less k's term, which would cancel badly when one partner's 1/q
// dwarfs the rest.
type wedgeSplit struct {
	p1, p2, p3 float64
	s1, s2     float64
}

// splitRun fills w.split for the owner run su, entry i for the edge at run
// position i, and returns it. Undecayed every d is 1, so run order already
// is decay order and nothing is sorted; under decay the run positions are
// stably sorted by decay first. One pass writes the prefix sums forward and
// the suffix sums backward.
func (k *postKernel) splitRun(su []int32, w *postScratch) []wedgeSplit {
	n := len(su)
	if cap(w.split) < n {
		w.split = make([]wedgeSplit, n)
	}
	split := w.split[:n]
	var order []int32 // run positions by ascending decay; nil when undecayed
	if k.decays != nil {
		if cap(w.order) < n {
			w.order = make([]int32, n)
		}
		order = w.order[:n]
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int {
			return cmp.Compare(k.decays[su[a]], k.decays[su[b]])
		})
	}
	var p1, p2, p3, s1, s2 float64
	for i := range n {
		f, b := i, n-1-i // the i-th oldest and the i-th newest
		if order != nil {
			f, b = int(order[f]), int(order[b])
		}
		d, inv := k.decay(su[f]), k.inv[su[f]]
		x := d * inv
		e := &split[f]
		e.p1, e.p2, e.p3 = p1, p2, p3
		p1 += x
		p2 += x * x
		p3 += d * x

		inv = k.inv[su[b]]
		e = &split[b]
		e.s1, e.s2 = s1, s2
		s1 += inv
		s2 += inv * inv
	}
	return split
}

// owners runs Algorithm 2 over the edges owned by dense ids [lo, hi) and
// returns their summed totals, in run order. w.marks is zero on entry and
// on return. An owner marks only when one of its edges can close a
// triangle, that is when the other endpoint has a second neighbour, and
// splits its run only when it owns an edge with a wedge partner at it.
func (k *postKernel) owners(lo, hi int, w *postScratch) partial {
	var p partial
	for id := lo; id < hi; id++ {
		u, nu, su := k.adj.RunAt(id)
		marked := false
		var split []wedgeSplit
		for j, v := range nu {
			slot := su[j]
			vid := k.other(slot, int32(id))
			_, nv, sv := k.adj.RunAt(int(vid))
			if !owns(len(nu), u, len(nv), v) {
				continue
			}
			if k.visit != nil {
				k.visit(slot)
			}
			if len(nu) == 1 {
				// Both ends of degree 1: no wedge partner and no triangle,
				// so every term but the edge share is 0, and adding 0
				// leaves the partial's bits as they are.
				p.edges += k.decay(slot) * k.inv[slot]
				continue
			}
			if split == nil {
				split = k.splitRun(su, w)
			}
			if !marked && len(nv) > 1 {
				for _, s := range su {
					w.marks[k.other(s, int32(id))] = s + 1
				}
				marked = true
			}
			k.edge(&p, slot, u, &split[j], vid, nv, sv, w.marks)
		}
		if marked {
			for _, s := range su {
				w.marks[k.other(s, int32(id))] = 0
			}
		}
		if k.visit != nil {
			k.visit(-1)
		}
	}
	return p
}

// edge runs Algorithm 2 lines 3-30 for the sampled edge k = {u,v} stored
// at slot, handled at its owner u, and adds the edge's totals to p. ws
// holds the split sums of k's wedge partners at u; nv and sv are v's
// neighbour and slot runs, and vid is v's dense id.
//
// With invQ = 1/q(k), decay factor d_k (1 when undecayed), and for each
// wedge partner j of k (every other edge of u and of v) the value
// x_j = min(d_k,d_j)/q_j, the wedge terms are three power sums:
//
//	X1 = Σ x_j,  X2 = Σ x_j²,  Y = Σ min(d_k,d_j)·x_j
//	N̂_k(Λ) = invQ·X1,  V̂_k(Λ) = invQ²·X2 − invQ·Y,
//	Ĉ_k(Λ) = invQ(invQ−1)·(X1² − X2)     (= 2·invQ(invQ−1)·Σ_{i<j} x_i x_j)
//
// The partners at u enter as X1 = P1 + d_k·S1, X2 = P2 + d_k²·S2 and
// Y = P3 + d_k²·S1 from ws, in O(1); the partners at v are added one by
// one in the triangle scan, which reads v's run anyway.
//
// For each triangle τ = (k, k1, k2) found at k, with t_τ = 1/(q1·q2),
// a_τ = d_τ·t_τ and d_τ = min(d_k, d_1, d_2), the decay of its oldest
// edge:
//
//	N̂_k(△) = Σ_τ d_τ·invQ·t_τ,  V̂_k(△) = Σ_τ d_τ²·invQ·t_τ(invQ·t_τ − 1)
//	Ĉ_k(△) = invQ(invQ−1)·(A1² − A2),  A1 = Σ a_τ, A2 = Σ a_τ²
//
// For the triangle–wedge covariance (Eq. 12) the pair sum over
// {(τ,λ) : τ∩λ≠∅} factorizes per edge: pairs sharing exactly k contribute
// invQ(invQ−1)·(A1·X1 − D), where D = Σ_τ a_τ(x_{k1} + x_{k2}) removes the
// wedge⊂triangle pairs; those instead contribute Ŝ_τ(Ŝ_λ−1), each added
// once, at the triangle edge opposite the wedge (the sub term).
//
// With no decay table every d is 1, so every product by d is exact and the
// sums equal the decayed ones at d ≡ 1 bit for bit.
func (k *postKernel) edge(p *partial, slot int32, u graph.NodeID, ws *wedgeSplit, vid int32,
	nv []graph.NodeID, sv []int32, marks []int32) {
	inv, decays := k.inv, k.decays
	invQ, dk := inv[slot], k.decay(slot)

	// X1, X2, Y over u's other edges.
	dk2 := dk * dk
	x1, x2, y := ws.p1+dk*ws.s1, ws.p2+dk2*ws.s2, ws.p3+dk2*ws.s1

	var t edgeTotals
	var a1, a2, dsum, sub float64 // A1, A2, D and the sub term
	for i, w := range nv {
		if w == u {
			continue // k itself is no wedge partner
		}
		s2 := sv[i]
		x := inv[s2]
		if decays != nil {
			d := minDecay(dk, decays[s2])
			x *= d
			y += d * x
		}
		x1 += x
		x2 += x * x

		// Triangle τ = (k, k1 = {u,w}, k2 = {v,w}) when w is marked, that
		// is when {u,w} is sampled. Unmarked, w reads mark 0, whose table
		// entries make every term below zero, and adding zeros leaves the
		// sums' bits as they are: on dense samples about as many
		// neighbours close a triangle as do not, so no branch is taken.
		m := marks[k.other(s2, vid)]
		i1 := k.invByMark[m]
		x1w, dTri, dOpp := i1, 1.0, 1.0 // x_{k1}, d_τ, decay of the wedge (k1,k2)
		if decays != nil {
			d1 := k.decayByMark[m]
			x1w *= minDecay(dk, d1)
			dOpp = minDecay(d1, decays[s2])
			dTri = minDecay(dk, dOpp)
		}
		st := i1 * inv[s2] // t_τ = Ŝ_{τ∖k}
		all := invQ * st   // Ŝ_τ
		a := dTri * st     // a_τ
		t.nTri += dTri * all
		t.vTri += dTri * dTri * all * (all - 1)
		a1 += a
		a2 += a * a
		dsum += a * (x1w + x)
		sub += dTri * dOpp * all * (st - 1)
	}

	if decays == nil {
		y = x1 // every d is 1
	}
	c := invQ * (invQ - 1)
	t.nW = invQ * x1
	t.vW = invQ*invQ*x2 - invQ*y
	t.cW = c * (x1*x1 - x2)
	t.cTri = c * (a1*a1 - a2)
	t.covTW = c*(a1*x1-dsum) + sub
	t.edges = dk * invQ
	p.add(t)
}

// decay returns d(k) of the edge at slot: 1 when undecayed.
func (k *postKernel) decay(slot int32) float64 {
	if k.decays == nil {
		return 1
	}
	return k.decays[slot]
}
