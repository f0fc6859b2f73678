package core

import (
	"math"
	"testing"

	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/randx"
	"gps/internal/stream"
)

func processAll(t *testing.T, s *Sampler, edges []graph.Edge) {
	t.Helper()
	for _, e := range edges {
		s.Process(e)
	}
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(Config{Capacity: 0}); err == nil {
		t.Fatal("Capacity 0 accepted")
	}
	if _, err := NewSampler(Config{Capacity: -5}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	s, err := NewSampler(Config{Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != 1 {
		t.Fatalf("Capacity() = %d", s.Capacity())
	}
}

func TestReservoirNeverExceedsCapacity(t *testing.T) {
	const m = 50
	s, err := NewSampler(Config{Capacity: m, Seed: 1, Weight: TriangleWeight})
	if err != nil {
		t.Fatal(err)
	}
	edges := gen.ErdosRenyi(200, 600, 2)
	for i, e := range edges {
		s.Process(e)
		if s.Reservoir().Len() > m {
			t.Fatalf("after edge %d: reservoir %d > m=%d", i, s.Reservoir().Len(), m)
		}
		if i+1 <= m && s.Reservoir().Len() != i+1 {
			t.Fatalf("warm-up: after %d edges reservoir has %d", i+1, s.Reservoir().Len())
		}
	}
	if s.Reservoir().Len() != m {
		t.Fatalf("final reservoir %d", s.Reservoir().Len())
	}
	if s.Arrivals() != uint64(len(edges)) {
		t.Fatalf("Arrivals = %d", s.Arrivals())
	}
}

func TestThresholdMonotoneAndZeroBeforeOverflow(t *testing.T) {
	const m = 64
	s, _ := NewSampler(Config{Capacity: m, Seed: 3})
	edges := gen.ErdosRenyi(100, 300, 4)
	prev := 0.0
	for i, e := range edges {
		s.Process(e)
		z := s.Threshold()
		if i < m && z != 0 {
			t.Fatalf("threshold %v before overflow", z)
		}
		if z < prev {
			t.Fatalf("threshold decreased: %v -> %v", prev, z)
		}
		prev = z
	}
	if s.Threshold() <= 0 {
		t.Fatal("threshold still zero after overflow")
	}
}

func TestInclusionProbabilitiesInUnitInterval(t *testing.T) {
	s, _ := NewSampler(Config{Capacity: 40, Seed: 5, Weight: TriangleWeight})
	edges := gen.HolmeKim(100, 3, 0.6, 6)
	processAll(t, s, edges)
	n := 0
	s.Reservoir().ForEachEdge(func(e graph.Edge) bool {
		q, ok := s.InclusionProb(e)
		if !ok {
			t.Fatalf("sampled edge %v has no probability", e)
		}
		if q <= 0 || q > 1 {
			t.Fatalf("q(%v) = %v", e, q)
		}
		n++
		return true
	})
	if n != s.Reservoir().Len() {
		t.Fatalf("iterated %d edges, reservoir has %d", n, s.Reservoir().Len())
	}
	if _, ok := s.InclusionProb(graph.NewEdge(4000, 4001)); ok {
		t.Fatal("unsampled edge reported a probability")
	}
}

// TestInclusionProbDefinition pins inclusionProb, and the 1/q every
// estimator divides by, bit for bit against the piecewise definition of
// Algorithm 1 (lines 15-17): q = 1 when z* = 0 or w ≥ z*, else w/z*. The
// cases sit on the edges of each piece — z* = 0, w = z*, w one ulp either
// side of z*, subnormal weights and thresholds, quotients that overflow or
// underflow, ratios near 2^±1000 — and a sweep adds pairs whose exponents
// overlap, so w falls on both sides of z*. Estimator reference tests
// cannot see a change to q: their references call the same function.
func TestInclusionProbDefinition(t *testing.T) {
	piecewise := func(w, zstar float64) float64 {
		if zstar <= 0 || w >= zstar {
			return 1
		}
		return w / zstar
	}
	check := func(w, zstar float64) {
		t.Helper()
		got, want := inclusionProb(w, zstar), piecewise(w, zstar)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("inclusionProb(%g, %g) = %g, definition %g", w, zstar, got, want)
		}
		if math.Float64bits(1/got) != math.Float64bits(1/want) {
			t.Fatalf("1/inclusionProb(%g, %g) = %g, definition %g", w, zstar, 1/got, 1/want)
		}
	}
	sub := math.SmallestNonzeroFloat64
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, 0) }
	for _, c := range [][2]float64{
		// z* = 0: no eviction yet.
		{1, 0}, {sub, 0}, {math.MaxFloat64, 0},
		// w = z*.
		{1, 1}, {3.5, 3.5}, {sub, sub}, {math.MaxFloat64, math.MaxFloat64},
		// One ulp below and above z*.
		{down(1), 1}, {up(1), 1}, {down(3.5), 3.5}, {up(3.5), 3.5},
		{down(math.MaxFloat64), math.MaxFloat64}, {2 * sub, up(2 * sub)}, {up(2 * sub), 2 * sub},
		// Subnormal w and z*; sub/MaxFloat64 underflows to q = 0, 1/q = +Inf.
		{sub, 1}, {sub, 3.5}, {3 * sub, 4 * sub}, {sub, math.MaxFloat64},
		{math.MaxFloat64, sub}, {math.Ldexp(1, -1030), math.Ldexp(1, -1022)},
		// Ratios near 2^±1000.
		{math.Ldexp(1, -1000), 1}, {math.Ldexp(1.5, -999), 1}, {1, math.Ldexp(1, 1000)},
		{math.Ldexp(1, 1000), 1}, {1, math.Ldexp(1, -1000)}, {math.Ldexp(1, 500), math.Ldexp(1, -500)},
		{math.Ldexp(3, -520), math.Ldexp(1, 480)},
	} {
		check(c[0], c[1])
	}
	rng := randx.New(0x9F)
	for range 200_000 {
		w := math.Ldexp(1+rng.Float64(), rng.Intn(81)-40)
		zstar := math.Ldexp(1+rng.Float64(), rng.Intn(81)-40)
		check(w, zstar)
		check(w, w*(1+math.Ldexp(rng.Float64()-0.5, -40)))
	}
}

func TestDuplicateArrivalsIgnored(t *testing.T) {
	s, _ := NewSampler(Config{Capacity: 10, Seed: 7})
	e := graph.NewEdge(1, 2)
	s.Process(e)
	s.Process(e)
	s.Process(e)
	if s.Arrivals() != 1 {
		t.Fatalf("Arrivals = %d, want 1", s.Arrivals())
	}
	if s.Duplicates() != 2 {
		t.Fatalf("Duplicates = %d, want 2", s.Duplicates())
	}
	if s.Reservoir().Len() != 1 {
		t.Fatalf("reservoir %d", s.Reservoir().Len())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	edges := gen.RMAT(10, 6, 0.57, 0.19, 0.19, 8)
	run := func() []graph.Edge {
		s, _ := NewSampler(Config{Capacity: 100, Seed: 42, Weight: TriangleWeight})
		stream.Drive(stream.Permute(edges, 9), func(e graph.Edge) { s.Process(e) })
		return s.Reservoir().Edges()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	got := map[graph.Edge]bool{}
	for _, e := range a {
		got[e] = true
	}
	for _, e := range b {
		if !got[e] {
			t.Fatalf("runs sampled different edges: %v", e)
		}
	}
}

func TestAdjacencyMatchesHeap(t *testing.T) {
	s, _ := NewSampler(Config{Capacity: 64, Seed: 11, Weight: AdjacencyWeight})
	edges := gen.BarabasiAlbert(300, 3, 12)
	processAll(t, s, edges)
	res := s.Reservoir()
	// Every adjacency edge must be in the heap and vice versa.
	count := 0
	res.ForEachEdge(func(e graph.Edge) bool {
		if _, ok := res.Weight(e); !ok {
			t.Fatalf("adjacency edge %v missing from heap", e)
		}
		count++
		return true
	})
	if count != res.Len() {
		t.Fatalf("adjacency has %d edges, heap %d", count, res.Len())
	}
	for _, e := range res.Edges() {
		if !res.Contains(e) {
			t.Fatalf("heap edge %v missing from Contains", e)
		}
	}
}

func TestInvalidWeightPanics(t *testing.T) {
	s, _ := NewSampler(Config{
		Capacity: 4,
		Weight:   func(graph.Edge, *Reservoir) float64 { return 0 },
	})
	defer func() {
		if recover() == nil {
			t.Fatal("zero weight did not panic")
		}
	}()
	s.Process(graph.NewEdge(0, 1))
}

func TestUniformWeightIsDefault(t *testing.T) {
	a, _ := NewSampler(Config{Capacity: 20, Seed: 13})
	b, _ := NewSampler(Config{Capacity: 20, Seed: 13, Weight: UniformWeight})
	edges := gen.ErdosRenyi(80, 200, 14)
	for _, e := range edges {
		a.Process(e)
		b.Process(e)
	}
	ae, be := a.Reservoir().Edges(), b.Reservoir().Edges()
	got := map[graph.Edge]bool{}
	for _, e := range ae {
		got[e] = true
	}
	for _, e := range be {
		if !got[e] {
			t.Fatal("nil Weight differs from UniformWeight")
		}
	}
}

func TestWeightFunctions(t *testing.T) {
	s, _ := NewSampler(Config{Capacity: 10, Seed: 1})
	// Build a sampled triangle 0-1-2 by hand.
	s.Process(graph.NewEdge(0, 1))
	s.Process(graph.NewEdge(1, 2))
	s.Process(graph.NewEdge(0, 2))
	r := s.Reservoir()
	// Edge (0,3) closes nothing.
	if w := TriangleWeight(graph.NewEdge(0, 3), r); w != 1 {
		t.Fatalf("TriangleWeight no-triangle = %v", w)
	}
	// A new edge (1,2) would close one triangle via node 0... it already
	// exists, but the weight function only counts common neighbors.
	if w := TriangleWeight(graph.NewEdge(1, 2), r); w != 9+1 {
		t.Fatalf("TriangleWeight one-triangle = %v", w)
	}
	if w := AdjacencyWeight(graph.NewEdge(0, 3), r); w != 2+0+1 {
		t.Fatalf("AdjacencyWeight = %v", w)
	}
	custom := NewTriangleWeight(5, 2)
	if w := custom(graph.NewEdge(1, 2), r); w != 5+2 {
		t.Fatalf("NewTriangleWeight = %v", w)
	}
	comb := CombineWeights([]float64{1, 2}, []WeightFunc{UniformWeight, UniformWeight})
	if w := comb(graph.NewEdge(0, 3), r); w != 3 {
		t.Fatalf("CombineWeights = %v", w)
	}
}

func TestWeightConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { NewTriangleWeight(1, 0) },
		func() { NewTriangleWeight(-1, 1) },
		func() { NewAdjacencyWeight(1, -1) },
		func() { CombineWeights(nil, nil) },
		func() { CombineWeights([]float64{-1}, []WeightFunc{UniformWeight}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
