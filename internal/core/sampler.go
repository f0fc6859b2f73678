package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"gps/internal/graph"
	"gps/internal/order"
	"gps/internal/randx"
)

// Config parameterizes a GPS sampler.
type Config struct {
	// Capacity is the reservoir size m (must be >= 1). GPS keeps the m
	// highest-priority edges seen so far.
	Capacity int
	// Weight is the sampling weight function W(k,K̂); nil means
	// UniformWeight (plain reservoir sampling).
	Weight WeightFunc
	// Seed makes the whole sampling run a deterministic function of the
	// stream order.
	Seed uint64
	// Decay enables forward-decay (time-decayed) sampling: each arriving
	// edge's weight is boosted by exp(λ(t-L)) for its event time t, so
	// recent edges dominate the sample and the estimators target decayed
	// counts (see the decay.go package notes). The zero value disables
	// decay, leaving behaviour bit-identical to earlier releases.
	Decay Decay
}

// Sampler implements Algorithm 1, GPS(m): graph priority sampling of an
// edge stream into a fixed-size reservoir.
//
// For each arriving edge k the sampler draws u(k) ~ Uniform(0,1], computes
// w(k) = W(k,K̂) against the current reservoir, assigns priority
// r(k) = w(k)/u(k), provisionally admits k, and, if the reservoir overflows
// its capacity m, evicts the minimum-priority edge k* and raises the
// threshold z* = max{z*, r(k*)}. At any time, the Horvitz-Thompson inclusion
// probability of a sampled edge is q(k) = min{1, w(k)/z*} (GPSNormalize).
//
// When the reservoir is full and the arriving priority is strictly below
// the current minimum, the provisional insert + evict pair would remove the
// arrival itself, so the sampler short-circuits: it only raises z* and never
// touches the heap or the topology index. Once the stream is long relative
// to m this rejection path handles almost every arrival, leaving the RNG
// draw and the weight evaluation as the whole per-edge cost.
//
// Sampler is not safe for concurrent use.
type Sampler struct {
	capacity   int
	weight     WeightFunc
	uniform    bool // weight is UniformWeight: skip the call and validation
	rng        *randx.RNG
	res        *Reservoir
	zstar      float64
	arrivals   uint64
	duplicates uint64

	// Turnstile-deletion counters. delApplied counts deletion records that
	// removed a resident edge; delUnsampled counts deletions of edges not in
	// the reservoir (already evicted or never admitted — applied vacuously).
	// Both are part of the stream position (Processed) so a checkpoint
	// resume over a deleting stream skips the right number of records.
	delApplied   uint64
	delUnsampled uint64

	// accepts/evicts are estimator self-telemetry: arrivals admitted to the
	// reservoir and previously-resident edges evicted by later arrivals, so
	// res.Len() == accepts - evicts at all times. They are plain fields (not
	// atomics) so Clone's struct copy stays legal; readers only see them via
	// immutable clones or behind the engine's admission barrier. They are
	// never serialized in checkpoints — a restored sampler restarts them at
	// zero.
	accepts uint64
	evicts  uint64

	// Forward-decay state (zero when decay is off; see decay.go). lambda is
	// ln2/HalfLife, landmark is L (pinned by the first arrival, the config,
	// or SetDecayLandmark), lastTS is the horizon T = max event time seen.
	decay       Decay
	lambda      float64
	landmark    uint64
	landmarkSet bool
	lastTS      uint64
}

// NewSampler returns a Sampler for the given configuration.
func NewSampler(cfg Config) (*Sampler, error) {
	if cfg.Capacity < 1 {
		return nil, errors.New("core: Capacity must be at least 1")
	}
	if err := cfg.Decay.validate(); err != nil {
		return nil, err
	}
	w, uniform := normalizeWeight(cfg.Weight)
	return &Sampler{
		capacity: cfg.Capacity,
		weight:   w,
		uniform:  uniform,
		rng:      randx.New(cfg.Seed),
		res:      newReservoir(cfg.Capacity),
		decay:    cfg.Decay,
		lambda:   cfg.Decay.lambda(),
	}, nil
}

// normalizeWeight maps a configured weight function to the one the sampler
// stores, reporting whether it is the uniform fast path: nil and an
// explicitly-passed UniformWeight both qualify (one reflect call at
// construction, none on the hot path). NewSampler and the checkpoint
// decoder share it so a restored sampler classifies its weight exactly like
// a fresh one.
func normalizeWeight(w WeightFunc) (WeightFunc, bool) {
	if w == nil {
		return UniformWeight, true
	}
	return w, reflect.ValueOf(w).Pointer() == reflect.ValueOf(UniformWeight).Pointer()
}

// Process handles one edge arrival (procedure GPSUpdate of Algorithm 1) and
// reports whether the edge is in the reservoir afterwards. Re-arrivals of an
// already-sampled edge are counted and ignored: the paper's stream model
// assumes unique edges (§3.1), so duplicates indicate the stream was not
// simplified upstream.
func (s *Sampler) Process(e graph.Edge) bool {
	if e.Del {
		s.deleteEdge(e)
		return false
	}
	if s.res.Contains(e) {
		s.duplicates++
		return true
	}
	w := 1.0
	if !s.uniform {
		w = s.weightOf(e)
	}
	return s.processWeighted(e, w) >= 0
}

// weightOf evaluates the sampling weight W(k,K̂) of a new arrival against
// the current reservoir, panicking on a value that is not positive and
// finite.
func (s *Sampler) weightOf(e graph.Edge) float64 {
	w := s.weight(e, s.res)
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("core: weight function returned invalid weight %v for edge %v", w, e))
	}
	return w
}

// processWeighted is the sampling step with the arrival's weight W(k,K̂)
// already evaluated. It returns the heap arena slot the arrival is stored
// at, or -1 when the arrival is not in the reservoir afterwards. It is
// bit-identical to Process on a non-duplicate arrival fed the same weight
// value: weight functions see neither the arrival counter nor the RNG, so
// evaluating W before the counter bump and the uniform draw commutes.
// InStream uses it to inject the triangle count its estimate pass already
// enumerated instead of re-running the common-neighbor merge inside
// TriangleWeight, and to learn which slot its per-edge record belongs to.
// Callers must have ruled out duplicates and guarantee w is the (strictly
// positive, finite) value s.weight would return for e against the current
// reservoir.
func (s *Sampler) processWeighted(e graph.Edge, w float64) int32 {
	s.arrivals++
	u := s.rng.Uniform01()
	if s.lambda > 0 {
		// Forward decay: boost by g(t)/g(L) and stamp the effective event
		// time onto the local copy, so the stored entry carries it.
		w = s.decayWeight(&e, w)
	}
	r := w / u

	if s.res.Len() == s.capacity && r < s.res.MinPriority() {
		// Rejection fast path: inserting and evicting the minimum of the
		// m+1 candidates would evict e itself (its priority is strictly
		// the least), leaving only the threshold update behind. Ties fall
		// through to the general path so eviction order is bit-identical
		// to the insert-then-evict formulation.
		if r > s.zstar {
			s.zstar = r
		}
		return -1
	}

	// Provisional inclusion, then evict the minimum of the m+1 candidates.
	slot := s.res.insert(order.Entry{Edge: e, Weight: w, Priority: r})
	if s.res.Len() > s.capacity {
		min := s.res.evictMin()
		if min.Priority > s.zstar {
			s.zstar = min.Priority
		}
		if min.Edge == e {
			return -1
		}
		s.evicts++
	}
	s.accepts++
	return slot
}

// deleteEdge applies a turnstile deletion record: if the edge is resident it
// is removed through the heap's arbitrary-position removal and dropped from
// the adjacency index; otherwise the deletion applies vacuously (the edge
// was evicted earlier or never admitted). Deletions are deterministic — no
// RNG draw, no threshold change — so a run containing them stays a
// bit-identical function of the stream order, and the surviving edges keep
// their original inclusion probabilities q(k) = min{1, w(k)/z*}: z* reflects
// evictions the sampler actually performed, which deletion does not revisit.
// A later arrival takes the freed place whatever its priority, yet is
// weighted by the same q = min{1, w/z*} as if it had beaten z*. The next
// eviction thresholds such fillers again, so steady interleaved traffic
// shows no bias, but after a burst of deletions Σ 1/q overcounts until the
// low fillers have been evicted.
// Reports whether a resident edge was removed.
func (s *Sampler) deleteEdge(e graph.Edge) bool {
	if _, ok := s.res.remove(e.Insert()); ok {
		s.delApplied++
		return true
	}
	s.delUnsampled++
	return false
}

// ProcessBatch handles a batch of edge arrivals and returns how many of
// them were in the reservoir immediately after their own sampling step. It
// is exactly equivalent to calling Process on each edge in order — same RNG
// draws, same reservoir, same threshold (a tested invariant) — per-edge
// cost is dominated by the sampling work itself, not call overhead. It
// exists as the bulk-ingestion surface: the unit of work the sharded
// engine hands to each shard, and the natural interface for callers that
// buffer arrivals.
func (s *Sampler) ProcessBatch(edges []graph.Edge) int {
	kept := 0
	for _, e := range edges {
		if s.Process(e) {
			kept++
		}
	}
	return kept
}

// Clone returns a deep copy of the sampler frozen at its current state:
// reservoir, threshold, counters and RNG position are all duplicated, so the
// clone and the original evolve independently and deterministically — fed
// the same suffix, both produce bit-identical reservoirs. Cloning is the
// copy-on-read primitive behind engine.Parallel.Snapshot: a clone can feed
// any estimator (or keep sampling a what-if continuation) while the original
// keeps consuming the live stream.
//
// The weight function itself is shared, not copied. For the built-in pure
// weights this is invisible; for a stateful weight (NewAdaptiveTriangleWeight)
// the adaptation state remains shared, so only one of the two forks should
// continue processing — read-only uses of the clone (estimation, snapshots)
// are always safe.
func (s *Sampler) Clone() *Sampler {
	c := *s
	c.rng = s.rng.Clone()
	c.res = s.res.clone()
	return &c
}

// CloneReusing is Clone drawing its backing arrays (heap arena, edge-key
// table, adjacency runs, RNG state) from recycle: a sampler previously
// returned by Clone or CloneReusing that the caller guarantees is retired —
// referenced nowhere else and never used again. Reusing a retired clone's
// memory makes repeated snapshotting of a steady-state reservoir
// allocation-free; the engine's dirty-shard snapshots feed it from a
// sync.Pool. A nil recycle is identical to Clone. The returned sampler is
// bit-identical to what Clone would have returned.
func (s *Sampler) CloneReusing(recycle *Sampler) *Sampler {
	if recycle == nil {
		return s.Clone()
	}
	c := recycle
	rng, res := c.rng, c.res
	*c = *s
	*rng = *s.rng
	c.rng = rng
	c.res = s.res.cloneInto(res)
	return c
}

// Threshold returns z*, the largest priority ever evicted (the (m+1)-st
// highest priority seen). It is 0 until the reservoir first overflows, in
// which case every sampled edge has inclusion probability 1.
func (s *Sampler) Threshold() float64 { return s.zstar }

// Arrivals returns the number of distinct edges processed (the stream time t).
func (s *Sampler) Arrivals() uint64 { return s.arrivals }

// Duplicates returns the number of ignored duplicate arrivals.
func (s *Sampler) Duplicates() uint64 { return s.duplicates }

// Accepts returns the number of arrivals admitted to the reservoir.
// Process-local telemetry, not carried through checkpoints.
func (s *Sampler) Accepts() uint64 { return s.accepts }

// Evicts returns the number of previously-resident edges evicted by later
// arrivals; Accepts() - Evicts() is the current reservoir fill. Same
// caveats as Accepts.
func (s *Sampler) Evicts() uint64 { return s.evicts }

// Deletions returns the turnstile-deletion counters: applied removed a
// resident edge, unsampled applied vacuously to an edge not in the
// reservoir.
func (s *Sampler) Deletions() (applied, unsampled uint64) {
	return s.delApplied, s.delUnsampled
}

// Processed returns the stream position: the total number of records handed
// to Process (distinct arrivals, ignored duplicates, and deletion records).
// A restore that replays the original stream must skip exactly this many
// records.
func (s *Sampler) Processed() uint64 {
	return s.arrivals + s.duplicates + s.delApplied + s.delUnsampled
}

// Capacity returns the reservoir capacity m.
func (s *Sampler) Capacity() int { return s.capacity }

// Reservoir exposes the sampled subgraph for estimation and for weight
// functions. Callers must not retain entry pointers across Process calls.
func (s *Sampler) Reservoir() *Reservoir { return s.res }

// probForWeight returns q = min{1, w/z*}, the conditional inclusion
// probability of an edge with stored weight w given the current threshold
// (GPSNormalize, Algorithm 1 lines 15-17). With z* = 0 no edge has ever
// been evicted and every sampled edge has probability 1.
func (s *Sampler) probForWeight(w float64) float64 { return inclusionProb(w, s.zstar) }

// inclusionProb is q = min{1, w/z*} at threshold zstar, for loops that hold
// z* in a local.
func inclusionProb(w, zstar float64) float64 {
	if zstar <= 0 || w >= zstar {
		return 1
	}
	return w / zstar
}

// InclusionProb returns the Horvitz-Thompson inclusion probability
// q(e) = min{1, w(e)/z*} of a sampled edge, with ok=false when e is not in
// the reservoir (its estimator value is implicitly zero).
func (s *Sampler) InclusionProb(e graph.Edge) (q float64, ok bool) {
	w, ok := s.res.Weight(e)
	if !ok {
		return 0, false
	}
	return s.probForWeight(w), true
}
