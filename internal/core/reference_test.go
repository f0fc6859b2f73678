package core

import (
	"cmp"
	"slices"
	"testing"

	"gps/internal/graph"
	"gps/internal/stream"
)

// This file holds the references the estimators are checked against.
//
// The lookup twins pin the slot-indexed estimators bit for bit: the same
// owners, edges, chunks and summation order, with every probability, decay
// and triangle membership resolved through the heap's key table
// (Reservoir.entry) and every degree through the adjacency's node table,
// so float64 results must be equal, not close.
//
// The per-edge reference is the Algorithm 2 scan EstimatePost ran before
// the owner kernel: every sampled edge in heap order, both endpoint runs
// walked in full, q divided out inside the loops, and the pair sums kept
// as running sums. It groups its sums differently, so it agrees with
// EstimatePost to a relative tolerance.

// estimatePostLookup is the lookup twin of EstimatePost.
func estimatePostLookup(s *Sampler) Estimates {
	adj := s.res.adj
	n := adj.DenseLen()
	parts := make([]partial, chunkCount(n, ownerChunk))
	forChunks(n, ownerChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			var p partial
			for id := lo; id < hi; id++ {
				u, nu, _ := adj.RunAt(id)
				for _, v := range nu {
					if owns(s.res.Degree(u), u, s.res.Degree(v), v) {
						p.add(s.edgeLookup(u, v))
					}
				}
			}
			parts[c] = p
		}
	})
	return reduceEstimates(parts, s)
}

// lookupEdge returns 1/q and the decay factor (1 when undecayed) of the
// sampled edge {a,b} through the heap's key table, or ok=false when the
// edge is not sampled.
func (s *Sampler) lookupEdge(a, b graph.NodeID) (inv, d float64, ok bool) {
	ent := s.res.entry(graph.NewEdge(a, b))
	if ent == nil {
		return 0, 0, false
	}
	d = 1
	if s.Decayed() {
		d = fastExp(s.lambda * (float64(ent.Edge.TS) - float64(s.lastTS)))
	}
	return 1 / s.probForWeight(ent.Weight), d, true
}

// mustLookup is lookupEdge for an edge the adjacency lists; a missing heap
// entry means the reservoir invariants are broken.
func (s *Sampler) mustLookup(a, b graph.NodeID) (inv, d float64) {
	inv, d, ok := s.lookupEdge(a, b)
	if !ok {
		panic("core: adjacency lists edge " + graph.NewEdge(a, b).String() + " missing from heap")
	}
	return inv, d
}

// edgeLookup is postKernel.edge for the edge {u,v} owned by u, resolved
// through the key tables: u's run stably sorted by decay and split at
// {u,v} into prefix and suffix sums (splitRun), then the wedge partners and
// triangles in v's neighbour order.
func (s *Sampler) edgeLookup(u, v graph.NodeID) edgeTotals {
	invQ, dk := s.mustLookup(u, v)
	type term struct {
		w      graph.NodeID
		inv, d float64
	}
	var run []term
	s.res.Neighbors(u, func(w graph.NodeID) bool {
		inv, d := s.mustLookup(u, w)
		run = append(run, term{w, inv, d})
		return true
	})
	slices.SortStableFunc(run, func(a, b term) int { return cmp.Compare(a.d, b.d) })
	r := slices.IndexFunc(run, func(t term) bool { return t.w == v })
	var p1, p2, p3, s1, s2 float64
	for _, t := range run[:r] {
		x := t.d * t.inv
		p1 += x
		p2 += x * x
		p3 += t.d * x
	}
	for i := len(run) - 1; i > r; i-- {
		s1 += run[i].inv
		s2 += run[i].inv * run[i].inv
	}
	dk2 := dk * dk
	x1, x2, y := p1+dk*s1, p2+dk2*s2, p3+dk2*s1
	var t edgeTotals
	var a1, a2, dsum, sub float64
	s.res.Neighbors(v, func(w graph.NodeID) bool {
		if w == u {
			return true
		}
		i2, d2 := s.mustLookup(v, w)
		d := minDecay(dk, d2)
		x := d * i2
		x1 += x
		x2 += x * x
		y += d * x
		i1, d1, ok := s.lookupEdge(u, w)
		if !ok {
			return true
		}
		x1w := minDecay(dk, d1) * i1
		dOpp := minDecay(d1, d2)
		dTri := minDecay(dk, dOpp)
		st := i1 * i2
		all := invQ * st
		a := dTri * st
		t.nTri += dTri * all
		t.vTri += dTri * dTri * all * (all - 1)
		a1 += a
		a2 += a * a
		dsum += a * (x1w + x)
		sub += dTri * dOpp * all * (st - 1)
		return true
	})
	c := invQ * (invQ - 1)
	t.nW = invQ * x1
	t.vW = invQ*invQ*x2 - invQ*y
	t.cW = c * (x1*x1 - x2)
	t.cTri = c * (a1*a1 - a2)
	t.covTW = c*(a1*x1-dsum) + sub
	t.edges = dk * invQ
	return t
}

// estimateLocalPostLookup mirrors EstimateLocalPost through the hash index.
func estimateLocalPostLookup(s *Sampler) LocalTriangles {
	n := s.res.Len()
	parts := make([]LocalTriangles, chunkCount(n, edgeChunk))
	forChunks(n, edgeChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			local := make(LocalTriangles)
			for i := lo; i < hi; i++ {
				k := s.res.heap.At(i).Edge
				invQ, _ := s.mustLookup(k.U, k.V)
				v1, v2 := k.U, k.V
				if s.res.Degree(v1) > s.res.Degree(v2) {
					v1, v2 = v2, v1
				}
				s.res.Neighbors(v1, func(v3 graph.NodeID) bool {
					if v3 == v2 {
						return true
					}
					i2, _, ok := s.lookupEdge(v2, v3)
					if !ok {
						return true
					}
					i1, _ := s.mustLookup(v1, v3)
					share := invQ * i1 * i2 / 3
					local[v1] += share
					local[v2] += share
					local[v3] += share
					return true
				})
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

// estimateCliques4PostLookup mirrors EstimateCliques4Post through the hash
// index.
func estimateCliques4PostLookup(s *Sampler) float64 {
	n := s.res.Len()
	totals := make([]float64, chunkCount(n, edgeChunk))
	forChunks(n, edgeChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			total := 0.0
			for i := lo; i < hi; i++ {
				k := s.res.heap.At(i).Edge
				u, v := k.U, k.V
				invQ, _ := s.mustLookup(u, v)
				var candidates []graph.NodeID
				s.res.CommonNeighbors(u, v, func(x graph.NodeID) bool {
					if x > v {
						candidates = append(candidates, x)
					}
					return true
				})
				if len(candidates) < 2 {
					continue
				}
				// Per-edge subtotal first, then fold into the chunk total —
				// the same summation grouping as cliques4At, which the
				// bit-exactness of the comparison depends on.
				edgeTotal := 0.0
				for i := 0; i < len(candidates); i++ {
					x := candidates[i]
					iux, _ := s.mustLookup(u, x)
					ivx, _ := s.mustLookup(v, x)
					invW := iux * ivx
					for j := i + 1; j < len(candidates); j++ {
						y := candidates[j]
						ixy, _, ok := s.lookupEdge(x, y)
						if !ok {
							continue
						}
						iuy, _ := s.mustLookup(u, y)
						ivy, _ := s.mustLookup(v, y)
						edgeTotal += invQ * invW * (iuy * ivy) * ixy
					}
				}
				total += edgeTotal
			}
			totals[c] = total
		}
	})
	return sumInOrder(totals)
}

// estimateStars3PostLookup mirrors EstimateStars3Post through the hash
// index, with the same dense-id chunks.
func estimateStars3PostLookup(s *Sampler) float64 {
	n := s.res.adj.DenseLen()
	totals := make([]float64, chunkCount(n, ownerChunk))
	forChunks(n, ownerChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			total := 0.0
			for id := lo; id < hi; id++ {
				v, nbrs, _ := s.res.adj.RunAt(id)
				if len(nbrs) == 0 {
					continue
				}
				var p1, p2, p3 float64
				for _, u := range nbrs {
					x, _ := s.mustLookup(v, u)
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

// estimatePostPerEdge is the per-edge reference: perEdge or perEdgeDecayed
// at each sampled edge, in fixed chunks of heap positions.
func estimatePostPerEdge(s *Sampler) Estimates {
	probs := make([]float64, s.res.heap.ArenaLen())
	for i := range s.res.Len() {
		slot := s.res.heap.SlotAt(i)
		probs[slot] = s.probForWeight(s.res.heap.BySlot(slot).Weight)
	}
	ends := s.slotEnds()
	var decays []float64
	if s.Decayed() {
		decays, _ = s.slotDecays()
	}
	n := s.res.Len()
	parts := make([]partial, chunkCount(n, edgeChunk))
	forChunks(n, edgeChunk, func() func(c, lo, hi int) {
		return func(c, lo, hi int) {
			var p partial
			for i := lo; i < hi; i++ {
				slot := s.res.heap.SlotAt(i)
				if decays == nil {
					p.add(s.perEdge(slot, probs, ends))
					continue
				}
				t := s.perEdgeDecayed(slot, probs, decays, ends)
				t.edges = decays[slot] / probs[slot]
				p.add(t)
			}
			parts[c] = p
		}
	})
	return reduceEstimates(parts, s)
}

// perEdge runs Algorithm 2 lines 3-30 for the sampled edge stored at the
// given heap slot. Triangle detection is a two-pointer merge of the
// shorter endpoint run against the longer one; wedges centred at both
// endpoints are enumerated in their respective loops.
func (s *Sampler) perEdge(slot int32, probs []float64, ends [][2]int32) edgeTotals {
	var t edgeTotals
	invQ := 1 / probs[slot]
	v1, n1, s1, v2, n2, s2 := s.endpointRuns(slot, ends)
	if len(n1) > len(n2) {
		v1, v2 = v2, v1
		n1, s1, n2, s2 = n2, s2, n1, s1
	}
	var cTriPairs, cWPairs float64
	var aK, bK, dK, subWedge float64
	j := 0
	for i, v3 := range n1 {
		if v3 == v2 {
			continue
		}
		q1 := probs[s1[i]]
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
	scale := 2 * invQ * (invQ - 1)
	t.cTri *= scale
	t.cW *= scale
	t.covTW = invQ*(invQ-1)*(aK*bK-dK) + subWedge
	return t
}

// perEdgeDecayed is perEdge with every motif scaled by the decay of its
// oldest edge.
func (s *Sampler) perEdgeDecayed(slot int32, probs, decays []float64, ends [][2]int32) edgeTotals {
	var t edgeTotals
	invQ := 1 / probs[slot]
	dk := decays[slot]
	v1, n1, s1, v2, n2, s2 := s.endpointRuns(slot, ends)
	if len(n1) > len(n2) {
		v1, v2 = v2, v1
		n1, s1, n2, s2 = n2, s2, n1, s1
	}
	var cTriPairs, cWPairs float64
	var aK, bK, dK, subWedge float64
	j := 0
	for i, v3 := range n1 {
		if v3 == v2 {
			continue
		}
		q1 := probs[s1[i]]
		d1 := decays[s1[i]]
		for j < len(n2) && n2[j] < v3 {
			j++
		}
		if j < len(n2) && n2[j] == v3 {
			q2 := probs[s2[j]]
			d2 := decays[s2[j]]
			dTri := minDecay(dk, minDecay(d1, d2))
			inv12 := 1 / (q1 * q2)
			invAll := invQ * inv12
			t.nTri += dTri * invAll
			t.vTri += dTri * dTri * invAll * (invAll - 1)
			t.cTri += cTriPairs * dTri * inv12
			cTriPairs += dTri * inv12
			aK += dTri * inv12
			dK += dTri * inv12 * (minDecay(dk, d1)/q1 + minDecay(dk, d2)/q2)
			subWedge += dTri * minDecay(d1, d2) * invAll * (inv12 - 1)
		}
		dW := minDecay(dk, d1)
		invW := invQ / q1
		t.nW += dW * invW
		t.vW += dW * dW * invW * (invW - 1)
		t.cW += cWPairs * dW / q1
		cWPairs += dW / q1
		bK += dW / q1
	}
	for i, v3 := range n2 {
		if v3 == v1 {
			continue
		}
		q2 := probs[s2[i]]
		dW := minDecay(dk, decays[s2[i]])
		invW := invQ / q2
		t.nW += dW * invW
		t.vW += dW * dW * invW * (invW - 1)
		t.cW += cWPairs * dW / q2
		cWPairs += dW / q2
		bK += dW / q2
	}
	scale := 2 * invQ * (invQ - 1)
	t.cTri *= scale
	t.cW *= scale
	t.covTW = invQ*(invQ-1)*(aK*bK-dK) + subWedge
	return t
}

// subgraphEstimateLookup mirrors SubgraphEstimate through InclusionProb.
func subgraphEstimateLookup(s *Sampler, edges ...graph.Edge) float64 {
	prod := 1.0
	for i, e := range edges {
		if containsBefore(edges, i, e) {
			continue
		}
		q, ok := s.InclusionProb(e)
		if !ok {
			return 0
		}
		prod /= q
	}
	return prod
}

// referenceSampler builds a partial-reservoir sampler over the golden
// clustered stream so thresholds are active and probabilities are < 1.
func referenceSampler(t *testing.T, weight WeightFunc, seed uint64) *Sampler {
	t.Helper()
	s, err := NewSampler(Config{Capacity: 2000, Weight: weight, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenStream() {
		s.Process(e)
	}
	if s.Threshold() == 0 {
		t.Fatal("reference sampler never overflowed; test needs q < 1")
	}
	return s
}

// TestSlotPathBitExactVsLookup is the tentpole's lock: every estimator on
// the slot-indexed fast path returns exactly — bit for bit — what the
// hash-lookup path returns, for every built-in weight function.
func TestSlotPathBitExactVsLookup(t *testing.T) {
	for _, tc := range []struct {
		name   string
		weight WeightFunc
	}{{"uniform", UniformWeight}, {"triangle", TriangleWeight}, {"adjacency", AdjacencyWeight}} {
		t.Run(tc.name, func(t *testing.T) {
			s := referenceSampler(t, tc.weight, 0xD5)

			if got, want := EstimatePost(s), estimatePostLookup(s); got != want {
				t.Errorf("EstimatePost diverges from lookup path:\n slot:   %+v\n lookup: %+v", got, want)
			}

			slotLocal, lookLocal := EstimateLocalPost(s), estimateLocalPostLookup(s)
			if len(slotLocal) != len(lookLocal) {
				t.Fatalf("local triangle maps differ in size: %d vs %d", len(slotLocal), len(lookLocal))
			}
			for v, c := range lookLocal {
				if slotLocal[v] != c {
					t.Fatalf("local triangles at node %d: slot %v vs lookup %v", v, slotLocal[v], c)
				}
			}

			if got, want := EstimateCliques4Post(s), estimateCliques4PostLookup(s); got != want {
				t.Errorf("EstimateCliques4Post: slot %v vs lookup %v", got, want)
			}
			if got, want := EstimateStars3Post(s), estimateStars3PostLookup(s); got != want {
				t.Errorf("EstimateStars3Post: slot %v vs lookup %v", got, want)
			}

			// Subgraph estimates across sampled triangles, sampled edges and
			// absent edges.
			count := 0
			s.Reservoir().ForEachEdge(func(e graph.Edge) bool {
				if got, want := s.SubgraphEstimate(e), subgraphEstimateLookup(s, e); got != want {
					t.Fatalf("SubgraphEstimate(%v): slot %v vs lookup %v", e, got, want)
				}
				s.Reservoir().CommonNeighbors(e.U, e.V, func(w graph.NodeID) bool {
					tri := []graph.Edge{e, graph.NewEdge(e.U, w), graph.NewEdge(e.V, w)}
					if got, want := s.SubgraphEstimate(tri...), subgraphEstimateLookup(s, tri...); got != want {
						t.Fatalf("SubgraphEstimate(%v): slot %v vs lookup %v", tri, got, want)
					}
					return true
				})
				count++
				return count < 500
			})
			if got := s.SubgraphEstimate(graph.NewEdge(1<<20, 1<<20+1)); got != 0 {
				t.Errorf("absent-edge subgraph estimate = %v, want 0", got)
			}
		})
	}
}

// TestSlotPathBitExactMidStream re-checks EstimatePost equality at several
// positions along the stream, including before the reservoir first
// overflows (z* = 0, all probabilities 1).
func TestSlotPathBitExactMidStream(t *testing.T) {
	edges := stream.Collect(stream.Permute(goldenStream(), 0xFACE))
	s, err := NewSampler(Config{Capacity: 1500, Weight: TriangleWeight, Seed: 0xA1})
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int]bool{100: true, 1500: true, 4000: true, len(edges): true}
	for i, e := range edges {
		s.Process(e)
		if cuts[i+1] {
			if got, want := EstimatePost(s), estimatePostLookup(s); got != want {
				t.Fatalf("at %d edges: slot %+v vs lookup %+v", i+1, got, want)
			}
		}
	}
}
