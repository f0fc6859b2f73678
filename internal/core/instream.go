package core

import (
	"reflect"
	"slices"

	"gps/internal/graph"
)

// InStream implements Algorithm 3: graph priority sampling with in-stream
// ("snapshot") estimation of triangle and wedge counts. When edge k arrives,
// and *before* the sampling step for k, every triangle (k1,k2,k) that k
// completes against the reservoir and every wedge (j,k) that k forms with a
// sampled edge j is snapshotted: its Horvitz-Thompson estimate, evaluated at
// the current threshold, is frozen into the running totals and never
// revisited (the stopped-Martingale construction of §5, Theorems 4-7).
// The underlying sample evolves exactly as under plain GPS, so the final
// reservoir can additionally be fed to EstimatePost; the paper's evaluation
// compares exactly these two estimators over one shared sample.
//
// In-stream estimation dominates post-stream estimation in variance because
// each snapshot is taken while the constituent edges are still "cheap"
// (their probabilities reflect the threshold at snapshot time, not the final
// one) and because snapshots of subgraphs whose edges are later evicted
// still contribute.
//
// Under forward decay (Config.Decay) the snapshots accumulate in landmark
// units: a motif snapshotted at event time t contributes its estimate
// scaled by g(t_min) = exp(λ(t_min − L)), the fixed forward-decay value of
// its oldest edge. This is the whole point of forward decay for in-stream
// estimation — the scaling of an already-frozen snapshot never changes as
// time advances, and Estimates divides the running totals by g(T) once at
// query time, yielding estimates of the decayed counts at the current
// horizon. The landmark-unit totals grow like exp(λ(T−L)), so (as with the
// sampler's boosted priorities) a run is bounded to ~1000 half-lives past
// the landmark.
//
// Algorithm 3's per-edge state lives in the estimator, not in the heap: a
// table indexed by heap arena slot holds, for each sampled edge, its weight
// and its two covariance accumulators. The snapshot loops read one compact
// record per sampled neighbour instead of the heap entry, and the sampler's
// entries (cloned, merged and checkpointed by every engine) carry only what
// sampling needs.
//
// InStream is not safe for concurrent use.
type InStream struct {
	s *Sampler

	// recs[slot] is the record of the edge stored at that heap arena slot,
	// written when the edge is admitted. A freed slot's record is garbage
	// until an admission reuses the slot, like the arena entry itself.
	recs []inRec

	nTri, vTri float64 // Ñ(△), Ṽ(△)
	nW, vW     float64 // Ñ(Λ), Ṽ(Λ)
	covTW      float64 // Ṽ(△,Λ)

	// decayedArrivals is Σ_k g(t_k) over all distinct arrivals (landmark
	// units) — renormalized by g(T) it is the *exact* decayed edge count,
	// every edge having been observed. Zero when decay is off.
	decayedArrivals float64

	// fuseTri marks the sampler's weight as exactly TriangleWeight, whose
	// common-neighbor count the estimate pass enumerates anyway: Process
	// then injects 9·|△̂(k)|+1 directly instead of letting the weight
	// function re-run the merge — the same value from the same enumeration,
	// so the sampling run is bit-identical, at half the topology work.
	fuseTri bool
}

// inRec is the in-stream record of one sampled edge: its weight w(k),
// copied from the heap entry at admission, and its covariance accumulators
// (Algorithm 3 lines 18-19, 27), which start at zero on admission and are
// discarded with the slot on eviction, as lines 39-40 prescribe.
type inRec struct {
	w        float64 // w(k)
	triCov   float64 // C̃_k(△)
	wedgeCov float64 // C̃_k(Λ)
}

// NewInStream returns an in-stream estimator with a fresh GPS sampler for
// the given configuration.
func NewInStream(cfg Config) (*InStream, error) {
	s, err := NewSampler(cfg)
	if err != nil {
		return nil, err
	}
	return &InStream{s: s, recs: make([]inRec, 0, cfg.Capacity+1), fuseTri: fusesTriangleWeight(cfg.Weight)}, nil
}

// fusesTriangleWeight reports whether w is exactly the built-in
// TriangleWeight (one reflect call at construction, mirroring
// normalizeWeight's uniform detection). Parameterized variants from
// NewTriangleWeight are closures with coefficients the estimator cannot
// see, so they keep the generic path.
func fusesTriangleWeight(w WeightFunc) bool {
	return w != nil && reflect.ValueOf(w).Pointer() == reflect.ValueOf(TriangleWeight).Pointer()
}

// Sampler exposes the underlying GPS sampler (e.g. to run EstimatePost over
// the same sample, or to query inclusion probabilities). Arrivals must go
// through InStream.Process: the per-edge table follows only the admissions
// the estimator makes.
func (t *InStream) Sampler() *Sampler { return t.s }

// Process handles one edge arrival: GPSEstimate(k) followed by
// GPSUpdate(k,m), in that order (Algorithm 3 lines 3-5). It reports whether
// the edge is in the reservoir afterwards. Duplicate arrivals of a sampled
// edge are ignored, matching Sampler.Process.
func (t *InStream) Process(e graph.Edge) bool {
	if e.Del {
		t.retractEstimate(e)
		t.s.Process(e) // performs the removal and keeps the deletion counters
		return false
	}
	if t.s.res.Contains(e) {
		t.s.duplicates++
		return true
	}
	tris := t.estimate(e)
	// TriangleWeight is 9·|△̂(k)|+1 and the estimate pass enumerated exactly
	// △̂(k) — the common neighbors of k's endpoints — so the fused path
	// reuses that count instead of re-merging the neighbor runs inside the
	// weight function. Same weight bits, same RNG draw, bit-identical run
	// (a tested invariant).
	w := 9*float64(tris) + 1
	if !t.fuseTri {
		w = t.s.weightOf(e)
	}
	slot := t.s.processWeighted(e, w)
	if slot >= 0 {
		if n := int(slot) + 1; n > len(t.recs) {
			t.recs = slices.Grow(t.recs, n-len(t.recs))[:n]
		}
		t.recs[slot] = inRec{w: t.s.res.entryAt(slot).Weight}
	}
	if t.s.lambda > 0 {
		// The sampling step above resolved the effective event time (and on
		// the first arrival, the landmark); Processed() is that stream
		// position for untimed edges.
		ts := e.TS
		if ts == 0 {
			ts = t.s.Processed()
		}
		t.decayedArrivals += fastExp(t.s.lambda * (float64(ts) - float64(t.s.landmark)))
	}
	return slot >= 0
}

// retractEstimate compensates the running totals for a turnstile deletion.
// The stopped-Martingale construction has no exact inverse: the snapshots a
// departing edge contributed to were frozen at historical thresholds that are
// no longer recoverable (and snapshots of motifs whose other edges were since
// evicted left no trace at all). The documented approximation mirrors the
// snapshot form at *current* probabilities: for every triangle the deleted
// edge still closes in the reservoir subtract 1/(q1·q2) (the deleted edge
// treated as the certain arrival, exactly how a snapshot enters), and for
// every wedge it forms with a sampled neighbor j subtract 1/q_j. Under decay
// each term is scaled by g(t_min) over the motif's current edges. Totals are
// floored at zero; the variance and per-edge covariance accumulators are left
// untouched — a deliberate conservative overestimate, since selectively
// unwinding frozen cross terms is not well defined. Unsampled deletions
// subtract nothing (their snapshots are indistinguishable from survivors').
func (t *InStream) retractEstimate(e graph.Edge) {
	res := t.s.res
	slot := res.slotOf(e.Insert())
	if slot < 0 {
		return
	}
	ent := res.entryAt(slot)
	decayed := t.s.lambda > 0
	tsK := ent.Edge.TS
	phiMin := func(a, b uint64) float64 {
		if b < a {
			a = b
		}
		return fastExp(t.s.lambda * (float64(a) - float64(t.s.landmark)))
	}

	var subTri, subW float64
	res.commonNeighborsWithSlots(e.U, e.V, func(v3 graph.NodeID, su, sv int32) bool {
		e1 := res.entryAt(su)
		e2 := res.entryAt(sv)
		inv := 1 / (t.s.probForWeight(e1.Weight) * t.s.probForWeight(e2.Weight))
		if decayed {
			ts := e1.Edge.TS
			if e2.Edge.TS < ts {
				ts = e2.Edge.TS
			}
			inv *= phiMin(tsK, ts)
		}
		subTri += inv
		return true
	})
	wedgeAt := func(center, other graph.NodeID) {
		nbrs, slots := res.neighborRun(center)
		for i, x := range nbrs {
			if x == other {
				continue
			}
			j := res.entryAt(slots[i])
			invQ := 1 / t.s.probForWeight(j.Weight)
			if decayed {
				invQ *= phiMin(tsK, j.Edge.TS)
			}
			subW += invQ
		}
	}
	wedgeAt(e.U, e.V)
	wedgeAt(e.V, e.U)

	t.nTri -= subTri
	if t.nTri < 0 {
		t.nTri = 0
	}
	t.nW -= subW
	if t.nW < 0 {
		t.nW = 0
	}
	if decayed {
		// The departed edge no longer counts toward the exact decayed edge
		// total. Unsampled deletions cannot be compensated here either —
		// their arrival timestamp is gone with the eviction.
		t.decayedArrivals -= fastExp(t.s.lambda * (float64(tsK) - float64(t.s.landmark)))
		if t.decayedArrivals < 0 {
			t.decayedArrivals = 0
		}
	}
}

// estimate is procedure GPSEstimate of Algorithm 3, returning |△̂(k)| —
// the number of triangles k completes against the reservoir, which the
// fused TriangleWeight path feeds back into the sampling step. The
// triangle loop must run before the wedge loop: a triangle snapshot and a
// same-arrival wedge snapshot sharing a sampled edge j are correlated, and
// the pair is counted exactly once — at the wedge step, which reads the
// triangle covariance accumulator C̃_j(△) already updated by the triangle
// step (line 26).
func (t *InStream) estimate(k graph.Edge) int {
	if t.s.lambda > 0 {
		return t.estimateDecayed(k)
	}
	res, recs, zstar := t.s.res, t.recs, t.s.zstar
	tris := 0

	// Triangles completed by k (lines 9-19). Distinct triangles completed
	// by the same arrival share no sampled edge, so the updates to the
	// per-edge accumulators of one cannot affect another ("parallel for").
	// Both rim edges' slots arrive alongside the common neighbor — no hash
	// probes on this path either.
	res.commonNeighborsWithSlots(k.U, k.V, func(v3 graph.NodeID, su, sv int32) bool {
		tris++
		r1, r2 := &recs[su], &recs[sv]
		q1 := inclusionProb(r1.w, zstar)
		q2 := inclusionProb(r2.w, zstar)
		inv := 1 / (q1 * q2)
		t.nTri += inv                                // line 14: triangle count
		t.vTri += (inv - 1) * inv                    // line 15: own variance term
		t.vTri += 2 * (r1.triCov + r2.triCov) * inv  // line 16: covariance with earlier triangles
		t.covTW += (r1.wedgeCov + r2.wedgeCov) * inv // line 17: covariance with earlier wedges
		r1.triCov += (1/q1 - 1) / q2                 // lines 18-19
		r2.triCov += (1/q2 - 1) / q1
		return true
	})

	// Wedges formed by k with each adjacent sampled edge j (lines 20-27).
	// k itself is not yet sampled, so every sampled neighbor of either
	// endpoint contributes exactly one wedge. The totals stay in locals
	// across a run: the same operations in the same order as updating them
	// in place.
	wedgeAt := func(center, other graph.NodeID) {
		nbrs, slots := res.neighborRun(center)
		nW, vW, covTW := t.nW, t.vW, t.covTW
		for i, x := range nbrs {
			if x == other {
				continue
			}
			r := &recs[slots[i]]
			invQ := 1 / inclusionProb(r.w, zstar)
			nW += invQ                  // line 23: wedge count
			vW += invQ * (invQ - 1)     // line 24: own variance term
			vW += 2 * r.wedgeCov * invQ // line 25: covariance with earlier wedges
			covTW += r.triCov * invQ    // line 26: covariance with earlier triangles
			r.wedgeCov += invQ - 1      // line 27
		}
		t.nW, t.vW, t.covTW = nW, vW, covTW
	}
	wedgeAt(k.U, k.V)
	wedgeAt(k.V, k.U)
	return tris
}

// estimateDecayed is GPSEstimate under forward decay: the same snapshot
// structure with every motif's contribution scaled by g(t_min), the fixed
// landmark-unit value of its oldest edge. The per-edge covariance
// accumulators carry the same scaling, so cross terms pick up both motifs'
// decay values. Estimates renormalizes everything by g(T) at query time.
// Event times are read from the heap entries; the records hold the rest.
func (t *InStream) estimateDecayed(k graph.Edge) int {
	res, recs, zstar := t.s.res, t.recs, t.s.zstar
	tris := 0
	tsK := k.TS
	if tsK == 0 {
		tsK = t.s.Processed() + 1 // the position this arrival is about to take
	}
	// g(min(a,b)) in landmark units; one Exp per motif.
	phiMin := func(a, b uint64) float64 {
		if b < a {
			a = b
		}
		return fastExp(t.s.lambda * (float64(a) - float64(t.s.landmark)))
	}

	res.commonNeighborsWithSlots(k.U, k.V, func(v3 graph.NodeID, su, sv int32) bool {
		tris++
		r1, r2 := &recs[su], &recs[sv]
		q1 := inclusionProb(r1.w, zstar)
		q2 := inclusionProb(r2.w, zstar)
		phi := phiMin(tsK, min(res.entryAt(su).Edge.TS, res.entryAt(sv).Edge.TS))
		inv := 1 / (q1 * q2)
		t.nTri += phi * inv
		t.vTri += phi * phi * (inv - 1) * inv
		t.vTri += 2 * (r1.triCov + r2.triCov) * phi * inv
		t.covTW += (r1.wedgeCov + r2.wedgeCov) * phi * inv
		r1.triCov += phi * (1/q1 - 1) / q2
		r2.triCov += phi * (1/q2 - 1) / q1
		return true
	})

	wedgeAt := func(center, other graph.NodeID) {
		nbrs, slots := res.neighborRun(center)
		nW, vW, covTW := t.nW, t.vW, t.covTW
		for i, x := range nbrs {
			if x == other {
				continue
			}
			slot := slots[i]
			r := &recs[slot]
			invQ := 1 / inclusionProb(r.w, zstar)
			phi := phiMin(tsK, res.entryAt(slot).Edge.TS)
			nW += phi * invQ
			vW += phi * phi * invQ * (invQ - 1)
			vW += 2 * r.wedgeCov * phi * invQ
			covTW += r.triCov * phi * invQ
			r.wedgeCov += phi * (invQ - 1)
		}
		t.nW, t.vW, t.covTW = nW, vW, covTW
	}
	wedgeAt(k.U, k.V)
	wedgeAt(k.V, k.U)
	return tris
}

// Estimates returns the current in-stream totals. Unlike post-stream
// estimation this is O(1): the counts are maintained incrementally. Under
// forward decay the landmark-unit totals are renormalized by g(T) (counts)
// and g(T)² (variances) to target the decayed counts at the current
// horizon.
func (t *InStream) Estimates() Estimates {
	est := Estimates{
		Triangles:        t.nTri,
		Wedges:           t.nW,
		VarTriangles:     t.vTri,
		VarWedges:        t.vW,
		CovTriangleWedge: t.covTW,
		SampledEdges:     t.s.res.Len(),
		Arrivals:         t.s.arrivals,
	}
	if t.s.lambda > 0 {
		gT := fastExp(t.s.lambda * (float64(t.s.lastTS) - float64(t.s.landmark)))
		est.Triangles /= gT
		est.Wedges /= gT
		est.VarTriangles /= gT * gT
		est.VarWedges /= gT * gT
		est.CovTriangleWedge /= gT * gT
		est.Decayed = true
		est.DecayedEdges = t.decayedArrivals / gT
		est.DecayHorizon = t.s.lastTS
	}
	return est
}
