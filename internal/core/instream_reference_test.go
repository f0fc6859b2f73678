package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/stream"
)

// inStreamReference is Algorithm 3 written the plain way: the per-edge
// accumulators C̃_k(△), C̃_k(Λ) live in a map keyed by edge key and are
// reset when the edge is admitted, every stored weight and event time is
// read by edge lookup, and every running total is updated in place, in the
// enumeration order InStream uses (common neighbours ascending, then the
// sampled neighbours of U and of V, each ascending). It samples through its
// own Sampler's generic weight path, so it also pins InStream's fused
// TriangleWeight path.
type inStreamReference struct {
	s   *Sampler
	cov map[uint64]*[2]float64 // edge key → {C̃_k(△), C̃_k(Λ)}

	nTri, vTri, nW, vW, covTW float64
	decayedArrivals           float64
}

func newInStreamReference(tb testing.TB, cfg Config) *inStreamReference {
	s, err := NewSampler(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &inStreamReference{s: s, cov: make(map[uint64]*[2]float64)}
}

// process is InStream.Process: the snapshot step, then the sampling step.
func (r *inStreamReference) process(e graph.Edge) bool {
	s := r.s
	if e.Del {
		r.retract(e)
		s.Process(e)
		return false
	}
	if s.res.Contains(e) {
		return s.Process(e) // counts the duplicate
	}
	r.estimate(e)
	in := s.Process(e)
	if in {
		r.cov[e.Key()] = &[2]float64{}
	}
	if s.lambda > 0 {
		ts := e.TS
		if ts == 0 {
			ts = s.Processed()
		}
		r.decayedArrivals += fastExp(s.lambda * (float64(ts) - float64(s.landmark)))
	}
	return in
}

// phi is g(min(a, b)) in landmark units.
func (r *inStreamReference) phi(a, b uint64) float64 {
	if b < a {
		a = b
	}
	return fastExp(r.s.lambda * (float64(a) - float64(r.s.landmark)))
}

func (r *inStreamReference) estimate(k graph.Edge) {
	s := r.s
	decayed := s.lambda > 0
	tsK := k.TS
	if tsK == 0 {
		tsK = s.Processed() + 1
	}
	s.res.CommonNeighbors(k.U, k.V, func(w graph.NodeID) bool {
		e1 := s.res.entry(graph.NewEdge(k.U, w))
		e2 := s.res.entry(graph.NewEdge(k.V, w))
		c1, c2 := r.cov[e1.Edge.Key()], r.cov[e2.Edge.Key()]
		q1 := s.probForWeight(e1.Weight)
		q2 := s.probForWeight(e2.Weight)
		inv := 1 / (q1 * q2)
		if decayed {
			phi := r.phi(tsK, min(e1.Edge.TS, e2.Edge.TS))
			r.nTri += phi * inv
			r.vTri += phi * phi * (inv - 1) * inv
			r.vTri += 2 * (c1[0] + c2[0]) * phi * inv
			r.covTW += (c1[1] + c2[1]) * phi * inv
			c1[0] += phi * (1/q1 - 1) / q2
			c2[0] += phi * (1/q2 - 1) / q1
			return true
		}
		r.nTri += inv
		r.vTri += (inv - 1) * inv
		r.vTri += 2 * (c1[0] + c2[0]) * inv
		r.covTW += (c1[1] + c2[1]) * inv
		c1[0] += (1/q1 - 1) / q2
		c2[0] += (1/q2 - 1) / q1
		return true
	})
	wedgeAt := func(center, other graph.NodeID) {
		s.res.Neighbors(center, func(x graph.NodeID) bool {
			if x == other {
				return true
			}
			ent := s.res.entry(graph.NewEdge(center, x))
			c := r.cov[ent.Edge.Key()]
			invQ := 1 / s.probForWeight(ent.Weight)
			if decayed {
				phi := r.phi(tsK, ent.Edge.TS)
				r.nW += phi * invQ
				r.vW += phi * phi * invQ * (invQ - 1)
				r.vW += 2 * c[1] * phi * invQ
				r.covTW += c[0] * phi * invQ
				c[1] += phi * (invQ - 1)
				return true
			}
			r.nW += invQ
			r.vW += invQ * (invQ - 1)
			r.vW += 2 * c[1] * invQ
			r.covTW += c[0] * invQ
			c[1] += invQ - 1
			return true
		})
	}
	wedgeAt(k.U, k.V)
	wedgeAt(k.V, k.U)
}

// retract is InStream's turnstile compensation, by edge lookup.
func (r *inStreamReference) retract(e graph.Edge) {
	s := r.s
	gone := s.res.entry(e.Insert())
	if gone == nil {
		return
	}
	decayed := s.lambda > 0
	tsK := gone.Edge.TS
	var subTri, subW float64
	s.res.CommonNeighbors(e.U, e.V, func(w graph.NodeID) bool {
		e1 := s.res.entry(graph.NewEdge(e.U, w))
		e2 := s.res.entry(graph.NewEdge(e.V, w))
		inv := 1 / (s.probForWeight(e1.Weight) * s.probForWeight(e2.Weight))
		if decayed {
			inv *= r.phi(tsK, min(e1.Edge.TS, e2.Edge.TS))
		}
		subTri += inv
		return true
	})
	wedgeAt := func(center, other graph.NodeID) {
		s.res.Neighbors(center, func(x graph.NodeID) bool {
			if x == other {
				return true
			}
			j := s.res.entry(graph.NewEdge(center, x))
			invQ := 1 / s.probForWeight(j.Weight)
			if decayed {
				invQ *= r.phi(tsK, j.Edge.TS)
			}
			subW += invQ
			return true
		})
	}
	wedgeAt(e.U, e.V)
	wedgeAt(e.V, e.U)
	r.nTri -= subTri
	if r.nTri < 0 {
		r.nTri = 0
	}
	r.nW -= subW
	if r.nW < 0 {
		r.nW = 0
	}
	if decayed {
		r.decayedArrivals -= fastExp(s.lambda * (float64(tsK) - float64(s.landmark)))
		if r.decayedArrivals < 0 {
			r.decayedArrivals = 0
		}
	}
}

// withDeletions interleaves turnstile deletions into a stream: after every
// fifth arrival, the arrival two places back is retracted, whether or not
// it is still sampled.
func withDeletions(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, len(edges)+len(edges)/5)
	for i, e := range edges {
		out = append(out, e)
		if i%5 == 4 {
			out = append(out, edges[i-2].AsDeletion())
		}
	}
	return out
}

// withChurn adds duplicates and re-arrivals to withDeletions' stream: after
// every third arrival the arrival before it comes again, a duplicate while
// that edge is still sampled, and after every seventh the edge deleted most
// recently arrives again, to be sampled afresh, often into a slot a
// deletion or an eviction has just freed.
func withChurn(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, len(edges)+len(edges)/3+len(edges)/5+len(edges)/7)
	var deleted []graph.Edge
	for i, e := range edges {
		out = append(out, e)
		if i%3 == 2 {
			out = append(out, edges[i-1])
		}
		if i%5 == 4 {
			out = append(out, edges[i-2].AsDeletion())
			deleted = append(deleted, edges[i-2])
		}
		if n := len(deleted); i%7 == 6 && n > 0 {
			out = append(out, deleted[n-1])
			deleted = deleted[:n-1]
		}
	}
	return out
}

// requireSameInStream compares the running totals of an InStream and the
// reference bit for bit.
func requireSameInStream(t *testing.T, at int, got *InStream, want *inStreamReference) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"triangles", got.nTri, want.nTri},
		{"triangle variance", got.vTri, want.vTri},
		{"wedges", got.nW, want.nW},
		{"wedge variance", got.vW, want.vW},
		{"triangle-wedge covariance", got.covTW, want.covTW},
		{"decayed arrivals", got.decayedArrivals, want.decayedArrivals},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("record %d: %s = %v, reference %v", at, c.name, c.got, c.want)
		}
	}
}

// TestInStreamMatchesReference pins Algorithm 3 bit for bit against
// inStreamReference across weights, capacities and time models. At m = 12
// nearly every admission reuses a freed slot, so per-edge state that is not
// reset on admission, or a sum taken in another order, shows at once. The
// churn streams must feed at least one duplicate of a sampled edge and
// sample at least one re-arrival of a deleted edge: the snapshot loops
// count on a duplicate never reaching them, and on a re-admitted edge
// starting from a clean record.
func TestInStreamMatchesReference(t *testing.T) {
	for _, weight := range []struct {
		name string
		fn   WeightFunc
	}{{"triangle", TriangleWeight}, {"adjacency", AdjacencyWeight}, {"uniform", nil}} {
		for _, m := range []int{12, 700} {
			for _, mode := range []struct {
				name  string
				decay Decay
				edges func() []graph.Edge
			}{
				{"undecayed", Decay{}, goldenStream},
				{"decayed", Decay{HalfLife: 3000}, goldenStream},
				{"turnstile", Decay{}, func() []graph.Edge { return withDeletions(goldenStream()) }},
				{"churn", Decay{}, func() []graph.Edge { return withChurn(goldenStream()) }},
				{"decayed-churn", Decay{HalfLife: 3000}, func() []graph.Edge { return withChurn(goldenStream()) }},
			} {
				t.Run(fmt.Sprintf("%s/m%d/%s", weight.name, m, mode.name), func(t *testing.T) {
					cfg := Config{Capacity: m, Weight: weight.fn, Seed: 0x3A, Decay: mode.decay}
					got, err := NewInStream(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := newInStreamReference(t, cfg)
					edges := mode.edges()
					deleted := make(map[uint64]bool)
					readmitted := 0
					for i, e := range edges {
						a, b := got.Process(e), want.process(e)
						if a != b {
							t.Fatalf("record %d: sampled %v, reference %v", i, a, b)
						}
						if e.Del {
							deleted[e.Key()] = true
						} else if a && deleted[e.Key()] {
							readmitted++
						}
						if i%500 == 0 || i == len(edges)-1 {
							requireSameInStream(t, i, got, want)
						}
					}
					if a, b := fingerprint(got.Sampler()), fingerprint(want.s); a != b {
						t.Fatalf("sampler fingerprint %#x, reference %#x", a, b)
					}
					if strings.HasSuffix(mode.name, "churn") && (got.Sampler().Duplicates() == 0 || readmitted == 0) {
						t.Fatalf("churn stream fed %d duplicates of sampled edges and sampled %d re-arrivals; want both > 0",
							got.Sampler().Duplicates(), readmitted)
					}
				})
			}
		}
	}
}

// inStreamBenchStreams builds the streams of BenchmarkInStream, shaped like
// the repo benchmark's replay but smaller: a permuted R-MAT stream whose
// triangle-weighted sample keeps hubs of a few hundred sampled neighbours,
// so the wedge loop dominates.
//   - replay: the stream as is;
//   - decayed: timed by position, with a half-life of a quarter of it;
//   - turnstile: with a deletion after every fifth arrival.
func inStreamBenchStreams() []struct {
	name  string
	cfg   Config
	edges []graph.Edge
} {
	edges := stream.Collect(stream.Permute(gen.RMAT(13, 16, 0.57, 0.19, 0.19, 3), 3))
	timed := make([]graph.Edge, len(edges))
	for i, e := range edges {
		timed[i] = e.At(uint64(i + 1))
	}
	cfg := Config{Capacity: 20_000, Weight: TriangleWeight, Seed: 3}
	decayed := cfg
	decayed.Decay = Decay{HalfLife: float64(len(edges)) / 4}
	return []struct {
		name  string
		cfg   Config
		edges []graph.Edge
	}{
		{"replay", cfg, edges},
		{"decayed", decayed, timed},
		{"turnstile", cfg, withDeletions(edges)},
	}
}

var inStreamBenchSink float64

// BenchmarkInStream times one pass of Algorithm 3 (InStream.Process over a
// whole stream from a fresh estimator) against inStreamReference on the
// same stream, reporting ns per stream record.
func BenchmarkInStream(b *testing.B) {
	for _, c := range inStreamBenchStreams() {
		b.Run(c.name+"/kernel", func(b *testing.B) {
			for b.Loop() {
				in, err := NewInStream(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range c.edges {
					in.Process(e)
				}
				inStreamBenchSink = in.nW
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.edges)), "ns/edge")
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			for b.Loop() {
				ref := newInStreamReference(b, c.cfg)
				for _, e := range c.edges {
					ref.process(e)
				}
				inStreamBenchSink = ref.nW
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.edges)), "ns/edge")
		})
	}
}
