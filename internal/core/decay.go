package core

import (
	"fmt"
	"math"

	"gps/internal/graph"
)

// Forward-decay (time-decayed) graph priority sampling.
//
// The paper's GPS framework samples a fixed-horizon stream: every edge,
// however old, competes on equal footing. Activity streams want the
// opposite — recent structure matters more — which the social-activity
// follow-up literature (Ahmed, Neville & Kompella) models with decayed
// counts: at query time T, an edge that arrived at event time t counts
// 2^{-(T-t)/h} for half-life h, and a motif counts as much as its *oldest*
// edge (a triangle is only as recent as its stalest side, exactly as a
// sliding window counts a triangle only when all three edges are inside).
//
// GPS extends to this target via forward decay (Cormode, Shkapenyuk,
// Srivastava & Xu, ICDE 2009): fix a landmark L at (or before) the start of
// the stream and give an edge arriving at time t the positive, *fixed*
// boost g(t) = exp(λ·(t-L)), λ = ln2/h. Because every priority is scaled by
// a function of the edge's own timestamp only, relative ranks never change
// as time advances — the reservoir, threshold and heap need no rescans or
// rescaling, and priority-sampling mergeability survives as long as every
// shard agrees on L. The decayed value of an edge at horizon T is then the
// ratio d(t) = g(t)/g(T) = exp(-λ(T-t)) ≤ 1, which estimators apply as a
// per-item value inside the usual Horvitz-Thompson sums: the sampling
// probabilities q(k) = min{1, w(k)/z*} stay exactly as Algorithm 1
// maintains them (with the boosted weights), and Σ_{k∈K̂} f(k)/q(k) is
// unbiased for Σ_stream f(k) for *any* per-item value f — here the decayed
// indicator of each motif.
//
// Numerics: the boost exp(λ(t-L)) grows with the stream's time span, so a
// run is limited to roughly 1000 half-lives past the landmark before
// float64 priorities overflow; the sampler panics with a descriptive
// message at that point rather than silently corrupting priorities. Decayed
// *estimates* are immune (they use the bounded ratio d ≤ 1).

// Decay configures forward-decay sampling. The zero value disables decay
// entirely: the sampler is then bit-identical to an undecayed one and
// ignores edge timestamps.
type Decay struct {
	// HalfLife is the exponential half-life h in event-time units: an edge
	// one half-life older than the horizon counts 1/2. 0 disables decay;
	// negative or non-finite values are rejected.
	//
	// For untimed streams (every edge TS 0) event time falls back to the
	// stream position, so HalfLife is then measured in arrivals.
	HalfLife float64
	// Landmark pins the forward-decay origin L explicitly. 0 (the default)
	// means "the first processed edge's event time". Samplers that must
	// agree on priorities — the engine's shards — need the same landmark;
	// the engine pins it across shards automatically.
	Landmark uint64
}

// Enabled reports whether this configuration turns decay on.
func (d Decay) Enabled() bool { return d.HalfLife != 0 }

// lambda returns the decay rate λ = ln2/h, or 0 when disabled.
func (d Decay) lambda() float64 {
	if d.HalfLife <= 0 {
		return 0
	}
	return math.Ln2 / d.HalfLife
}

// validate rejects configurations that could never produce valid weights.
func (d Decay) validate() error {
	if d.HalfLife < 0 || math.IsNaN(d.HalfLife) || math.IsInf(d.HalfLife, 0) {
		return fmt.Errorf("core: Decay.HalfLife must be a finite non-negative number, got %v", d.HalfLife)
	}
	return nil
}

// decayWeight applies the forward-decay boost g(t)/g(L) = exp(λ(t-L)) to an
// arriving edge's weight, resolving the effective event time (the edge's
// timestamp, or the stream position for untimed edges), pinning the
// landmark on first use and advancing the horizon. It stamps the resolved
// time back onto *e so the reservoir entry records the event time the
// estimators will decay against. Callers have already incremented arrivals.
func (s *Sampler) decayWeight(e *graph.Edge, w float64) float64 {
	ts := e.TS
	if ts == 0 {
		ts = s.arrivals + s.duplicates // arrival-order time for untimed streams
	}
	if !s.landmarkSet {
		s.landmark = ts
		if s.decay.Landmark != 0 {
			s.landmark = s.decay.Landmark
		}
		s.landmarkSet = true
	}
	if ts > s.lastTS {
		s.lastTS = ts
	}
	e.TS = ts
	boosted := w * fastExp(s.lambda*(float64(ts)-float64(s.landmark)))
	if boosted <= 0 || math.IsNaN(boosted) || math.IsInf(boosted, 0) {
		panic(DecayOverflowError{msg: fmt.Sprintf(
			"core: forward-decay weight %v for edge %d-%d at t=%d (landmark %d, half-life %v): "+
				"the landmark-to-now span exceeds what float64 priorities represent (~1000 half-lives); "+
				"use a larger half-life or restart with a later landmark", boosted, e.U, e.V, ts, s.landmark, s.decay.HalfLife)})
	}
	return boosted
}

// DecayOverflowError is the panic value raised when a forward-decay boost
// leaves float64 range (the stream ran too many half-lives past the
// landmark). It is a panic, not a return — by the time it can happen the
// sampler's configuration is unusable for the stream — but it is typed so
// CLI frontends can recover it into a clean exit.
type DecayOverflowError struct{ msg string }

func (e DecayOverflowError) Error() string { return e.msg }

// Decayed reports whether forward-decay sampling is enabled.
func (s *Sampler) Decayed() bool { return s.lambda > 0 }

// DecayConfig returns the decay configuration the sampler runs with.
func (s *Sampler) DecayConfig() Decay { return s.decay }

// DecayLandmark returns the forward-decay landmark L and whether it has
// been pinned yet (it is pinned by the first arrival, by configuration, or
// by SetDecayLandmark).
func (s *Sampler) DecayLandmark() (uint64, bool) { return s.landmark, s.landmarkSet }

// DecayHorizon returns T, the largest event time processed so far — the
// horizon decayed estimates are evaluated at. It is 0 when decay is off or
// nothing has arrived.
func (s *Sampler) DecayHorizon() uint64 { return s.lastTS }

// SetDecayLandmark pins the forward-decay landmark before it self-pins from
// the first arrival. It is how the sharded engine makes every shard agree
// on L (their priorities must be mutually comparable at merge time). It
// errors on an undecayed sampler and on an attempt to move an
// already-pinned landmark elsewhere.
func (s *Sampler) SetDecayLandmark(ts uint64) error {
	if s.lambda == 0 {
		return fmt.Errorf("core: SetDecayLandmark on a sampler without decay")
	}
	if s.landmarkSet {
		if s.landmark != ts {
			return fmt.Errorf("core: decay landmark already pinned at %d, cannot move to %d", s.landmark, ts)
		}
		return nil
	}
	s.landmark = ts
	s.landmarkSet = true
	return nil
}

// slotDecays builds the slot-indexed decay table of decayed estimation:
// decays[slot] = d(t) = exp(-λ(T-t)) ≤ 1 for every sampled edge, indexed by
// heap arena slot, with T the current horizon. EstimatePost scales every
// enumerated motif's Horvitz-Thompson contribution by its decayed value —
// the decay factor of its oldest edge (the min over member decays, since d
// is monotone in event time) — so point estimates are unbiased for the
// decayed counts, and the variance and covariance sums carry the matching
// d² (diagonal) and d·d' (pair) scalings. Like slotInvProbs the table is
// one O(m) pass, immutable, shareable across estimator workers, and
// invalidated by the next Process, and byMark is the table behind one
// leading entry, 1, that stands for no slot.
func (s *Sampler) slotDecays() (decays, byMark []float64) {
	byMark = make([]float64, s.res.heap.ArenaLen()+1)
	byMark[0] = 1
	decays = byMark[1:]
	horizon := float64(s.lastTS)
	for i, n := 0, s.res.Len(); i < n; i++ {
		slot := s.res.heap.SlotAt(i)
		decays[slot] = fastExp(s.lambda * (float64(s.res.heap.BySlot(slot).Edge.TS) - horizon))
	}
	return decays, byMark
}

// minDecay returns the smaller decay factor — the older edge's, since d is
// monotone in event time.
func minDecay(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
