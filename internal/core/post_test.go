package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/order"
	"gps/internal/randx"
	"gps/internal/stream"
)

// estimatorFamily is one reference sample the estimators are run on.
type estimatorFamily struct {
	name string
	s    *Sampler
}

// estimatorFamilies returns the reference samples: the golden stream under
// each built-in weight, forward-decayed, with turnstile deletions, and a
// merge of hash shards. Every one has overflowed, so q < 1 somewhere.
func estimatorFamilies(t testing.TB) []estimatorFamily {
	t.Helper()
	sampler := func(cfg Config, edges []graph.Edge) *Sampler {
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.Process(e)
		}
		if s.Threshold() == 0 {
			t.Fatalf("%+v: sampler never overflowed; the family needs q < 1", cfg)
		}
		return s
	}
	golden := goldenStream()

	// Deleting: every edge at an index divisible by 5 is deleted 300
	// arrivals later, so deletions hit resident and evicted edges alike.
	var deleting []graph.Edge
	for i, e := range golden {
		deleting = append(deleting, e)
		if j := i - 300; j >= 0 && j%5 == 0 {
			deleting = append(deleting, golden[j].AsDeletion())
		}
	}

	// Merged: three hash shards of the golden stream, as the engine
	// partitions it.
	cfg := Config{Capacity: 800, Weight: TriangleWeight}
	var shards [3][]graph.Edge
	for _, e := range golden {
		i := randx.Mix64(e.Key()) % 3
		shards[i] = append(shards[i], e)
	}
	inputs := make([]*Sampler, len(shards))
	for i, part := range shards {
		c := cfg
		c.Seed = 0x5A + uint64(i)
		inputs[i] = sampler(c, part)
	}
	cfg.Capacity = 2000
	merged, err := Merge(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	return []estimatorFamily{
		{"uniform", sampler(Config{Capacity: 2000, Weight: UniformWeight, Seed: 0xD5}, golden)},
		{"triangle", sampler(Config{Capacity: 2000, Weight: TriangleWeight, Seed: 0xD5}, golden)},
		{"adjacency", sampler(Config{Capacity: 2000, Weight: AdjacencyWeight, Seed: 0xD5}, golden)},
		{"decayed", sampler(Config{Capacity: 2000, Weight: TriangleWeight, Seed: 0xD6,
			Decay: Decay{HalfLife: 4000}}, timedGoldenStream())},
		{"deleting", sampler(Config{Capacity: 2000, Weight: TriangleWeight, Seed: 0xD7}, deleting)},
		{"merged", merged},
	}
}

// estimatorBits runs every post-stream estimator on s and returns their
// outputs as float64 bits, in a fixed order.
func estimatorBits(t *testing.T, s *Sampler) []uint64 {
	t.Helper()
	out := estimateBits(t, EstimatePost(s))
	local := EstimateLocalPost(s)
	nodes := make([]graph.NodeID, 0, len(local))
	for v := range local {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	for _, v := range nodes {
		out = append(out, uint64(v), math.Float64bits(local[v]))
	}
	for _, x := range []float64{EstimateCliques4Post(s), EstimateStars3Post(s), EstimateEdges(s)} {
		out = append(out, math.Float64bits(x))
	}
	return out
}

// TestEstimatesIndependentOfGOMAXPROCS requires every post-stream
// estimator to return the same bits at GOMAXPROCS 1 through 8, on plain,
// decayed, deleting and merged samples: the answer is a function of the
// sample, not of the host it runs on.
func TestEstimatesIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tt := range estimatorFamilies(t) {
		runtime.GOMAXPROCS(1)
		want := estimatorBits(t, tt.s)
		for procs := 2; procs <= 8; procs++ {
			runtime.GOMAXPROCS(procs)
			if got := estimatorBits(t, tt.s); !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Errorf("%s: GOMAXPROCS %d differs from GOMAXPROCS 1 at output %d of %d", tt.name, procs, i, len(want))
			}
		}
	}
}

// ownerVisits runs the Algorithm 2 kernel over s one owner at a time and
// returns, per heap arena slot, the dense ids that took the edge up. After
// every owner it requires the mark array to be clean again.
func ownerVisits(t *testing.T, s *Sampler) [][]int {
	t.Helper()
	k := s.newPostKernel()
	n := s.res.adj.DenseLen()
	w := &postScratch{marks: make([]int32, n)}
	visits := make([][]int, s.res.heap.ArenaLen())
	owner, cleared := 0, 0
	k.visit = func(slot int32) {
		if slot < 0 {
			cleared++
			return
		}
		visits[slot] = append(visits[slot], owner)
	}
	for owner = range n {
		k.owners(owner, owner+1, w)
		if i := slices.IndexFunc(w.marks, func(m int32) bool { return m != 0 }); i >= 0 {
			t.Fatalf("owner %d left mark %d at dense id %d", owner, w.marks[i], i)
		}
	}
	if cleared != n {
		t.Fatalf("%d owners reported clearing their marks, want %d", cleared, n)
	}
	return visits
}

// requireOwnerRule requires every sampled edge of s to be visited exactly
// once, by the endpoint the owner rule names, and nothing at a freed slot;
// and the kernel to match its lookup twin bit for bit.
func requireOwnerRule(t *testing.T, name string, s *Sampler) {
	t.Helper()
	visits := ownerVisits(t, s)
	live := make([]bool, len(visits))
	for i := range s.res.Len() {
		live[s.res.heap.SlotAt(i)] = true
	}
	for slot, ids := range visits {
		if !live[slot] {
			if len(ids) != 0 {
				t.Fatalf("%s: freed slot %d visited by %v", name, slot, ids)
			}
			continue
		}
		e := s.res.entryAt(int32(slot)).Edge
		if len(ids) != 1 {
			t.Fatalf("%s: edge %v visited %d times, want once", name, e, len(ids))
		}
		u, nu, _ := s.res.adj.RunAt(ids[0])
		v := e.U
		if v == u {
			v = e.V
		}
		if u != e.U && u != e.V {
			t.Fatalf("%s: edge %v taken up by non-endpoint %d", name, e, u)
		}
		// The longer run owns the edge, the larger NodeID on a tie.
		if du, dv := len(nu), s.res.Degree(v); du < dv || du == dv && u < v {
			t.Fatalf("%s: edge %v taken up by %d (run %d), not its owner %d (run %d)", name, e, u, du, v, dv)
		}
	}
	if got, want := EstimatePost(s), estimatePostLookup(s); got != want {
		t.Fatalf("%s: kernel diverges from lookup twin:\n kernel: %+v\n lookup: %+v", name, got, want)
	}
}

// TestOwnerRuleVisitsEachEdgeOnce pins the Algorithm 2 kernel's traversal:
// every sampled edge is taken up exactly once, at the endpoint with the
// longer run (the larger NodeID on a tie), and each owner leaves its
// worker's mark array clean. It covers runs of equal length, freed dense
// ids and recycled slots after insert/evict/delete churn, a clone, a
// checkpoint restore (graph.RestoreAdjacency), a merge (graph.
// BuildAdjacency), a decayed sample, and the extreme NodeIDs 0 and
// 0xFFFFFFFF.
func TestOwnerRuleVisitsEachEdgeOnce(t *testing.T) {
	sampler := func(cfg Config, edges []graph.Edge) *Sampler {
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.Process(e)
		}
		return s
	}

	// Equal-length runs: a clique and a cycle make every edge a tie.
	const top = graph.NodeID(0xFFFFFFFF)
	var ring []graph.Edge
	for i := range graph.NodeID(9) {
		ring = append(ring, graph.NewEdge(top-i, top-(i+1)%9))
	}
	equal := append(kClique(7), ring...)
	requireOwnerRule(t, "equal-runs", sampler(Config{Capacity: 100, Seed: 1}, equal))

	// Extreme NodeIDs: 0 and 0xFFFFFFFF as hubs, leaves and tie-breakers.
	extreme := []graph.Edge{
		graph.NewEdge(0, top), graph.NewEdge(0, 1), graph.NewEdge(top, 1),
		graph.NewEdge(0, 2), graph.NewEdge(top, 2), graph.NewEdge(0, top-1),
		graph.NewEdge(top, top-1), graph.NewEdge(5, 6),
	}
	requireOwnerRule(t, "extreme-ids", sampler(Config{Capacity: 100, Weight: TriangleWeight, Seed: 2}, extreme))

	// Churn: a tight reservoir with deletions frees and recycles dense ids
	// and arena slots; check at several points along the stream.
	rng := randx.New(0xC4)
	edges := gen.HolmeKim(300, 5, 0.5, 0xC4)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	churn, err := NewSampler(Config{Capacity: 150, Weight: TriangleWeight, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edges {
		churn.Process(e)
		if i%3 == 0 && i > 10 {
			churn.Process(edges[rng.Intn(i)].AsDeletion())
		}
		if i%400 == 399 {
			requireOwnerRule(t, fmt.Sprintf("churn@%d", i+1), churn)
		}
	}
	if churn.res.adj.DenseLen() == churn.res.NumNodes() || churn.res.heap.ArenaLen() == churn.res.Len() {
		t.Fatal("churn left no freed dense id or arena slot; the family needs both")
	}
	requireOwnerRule(t, "churn", churn)
	requireOwnerRule(t, "clone", churn.Clone())
	requireOwnerRule(t, "restore", restoreSampler(t, checkpointBytes(t, churn, "triangle")))
	merged, err := Merge([]*Sampler{churn, sampler(Config{Capacity: 150, Weight: TriangleWeight, Seed: 4}, edges)},
		Config{Capacity: 200, Weight: TriangleWeight})
	if err != nil {
		t.Fatal(err)
	}
	requireOwnerRule(t, "merge", merged)

	// Decayed: the kernel reads the decay table, its twin the stored
	// event times.
	timed := make([]graph.Edge, len(edges))
	for i, e := range edges {
		timed[i] = e.At(uint64(i + 1))
	}
	requireOwnerRule(t, "decayed", sampler(Config{Capacity: 150, Weight: TriangleWeight, Seed: 5,
		Decay: Decay{HalfLife: 200}}, timed))
}

// TestPostKernelMatchesPerEdgeReference compares every Estimates field of
// EstimatePost with the per-edge reference on every reference family.
func TestPostKernelMatchesPerEdgeReference(t *testing.T) {
	for _, tt := range estimatorFamilies(t) {
		got := requirePerEdgeMatch(t, tt.name, tt.s)
		if tt.name == "decayed" && !got.Decayed {
			t.Errorf("%s: estimate not flagged decayed", tt.name)
		}
	}
}

// requirePerEdgeMatch compares every Estimates field of EstimatePost on s
// with the per-edge reference and returns the kernel's estimates. The two
// group their floating-point sums differently (power sums split at each
// edge against running sums, products of 1/q against quotients), so the
// estimates agree to a relative tolerance, stated here: 1e-12. The other
// fields must be equal.
func requirePerEdgeMatch(t *testing.T, name string, s *Sampler) Estimates {
	t.Helper()
	const tol = 1e-12
	got, want := EstimatePost(s), estimatePostPerEdge(s)
	for _, f := range []struct {
		name   string
		gv, wv float64
	}{
		{"Triangles", got.Triangles, want.Triangles},
		{"Wedges", got.Wedges, want.Wedges},
		{"VarTriangles", got.VarTriangles, want.VarTriangles},
		{"VarWedges", got.VarWedges, want.VarWedges},
		{"CovTriangleWedge", got.CovTriangleWedge, want.CovTriangleWedge},
		{"DecayedEdges", got.DecayedEdges, want.DecayedEdges},
	} {
		if d := math.Abs(f.gv - f.wv); d > tol*math.Max(math.Abs(f.gv), math.Abs(f.wv)) {
			t.Errorf("%s: %s = %v, per-edge reference %v (relative difference %.3g)",
				name, f.name, f.gv, f.wv, d/math.Abs(f.wv))
		}
	}
	exact, ref := got, want
	exact.Triangles, exact.Wedges, exact.VarTriangles, exact.VarWedges = 0, 0, 0, 0
	exact.CovTriangleWedge, exact.DecayedEdges = 0, 0
	ref.Triangles, ref.Wedges, ref.VarTriangles, ref.VarWedges = 0, 0, 0, 0
	ref.CovTriangleWedge, ref.DecayedEdges = 0, 0
	if exact != ref {
		t.Errorf("%s: exact fields differ:\n kernel:    %+v\n reference: %+v", name, exact, ref)
	}
	return got
}

// handSample builds a sampler holding exactly the given edges, bypassing
// admission: each edge keeps its event time and the weight weight(e), and
// the threshold is z, so q = min{1, weight(e)/z}. A halfLife of 0 leaves
// the sample undecayed; otherwise its horizon is the latest event time.
func handSample(t *testing.T, edges []graph.Edge, weight func(graph.Edge) float64, z, halfLife float64) *Sampler {
	t.Helper()
	s, err := NewSampler(Config{Capacity: len(edges), Decay: Decay{HalfLife: halfLife}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		w := weight(e)
		s.res.insert(order.Entry{Edge: e, Weight: w, Priority: z + w})
		if s.Decayed() {
			s.lastTS = max(s.lastTS, e.TS)
		}
	}
	s.zstar = z
	return s
}

// TestPostKernelSplitSums checks the split wedge sums on hand-built
// samples, undecayed and decayed, against the per-edge reference and the
// lookup twin. The hub 0 takes up both the oldest edge of its run, {0,4},
// and the newest, {0,6}; its run is out of event-time order, with three
// pairs of tied times. 12 owns two edges at one event time, and 11, 12, 21
// and the leaves 6 and 8 own runs of length 2. The heavy weight gives the
// hub edge {0,1} a 1/q about 1e9 times its partners', where a sum taken as
// a run total less the edge's own term would lose about nine digits.
func TestPostKernelSplitSums(t *testing.T) {
	at := func(u, v graph.NodeID, ts uint64) graph.Edge { return graph.NewEdge(u, v).At(ts) }
	edges := []graph.Edge{
		// The hub and the five triangles its leaves close.
		at(0, 1, 30), at(0, 2, 10), at(0, 3, 10), at(0, 4, 1), at(0, 5, 20),
		at(0, 6, 40), at(0, 7, 30), at(0, 8, 20),
		at(1, 2, 15), at(2, 3, 10), at(3, 4, 35), at(5, 6, 5), at(7, 8, 40),
		// A triangle at one event time, and a path.
		at(10, 11, 25), at(10, 12, 25), at(11, 12, 25),
		at(20, 21, 2), at(21, 22, 38),
	}
	mild := func(e graph.Edge) float64 { return 0.5 + float64(e.U+e.V)/40 } // q from 0.5 to 1
	hub := graph.NewEdge(0, 1).Key()
	heavy := func(e graph.Edge) float64 {
		if e.Key() == hub {
			return 1e-9
		}
		return mild(e)
	}
	for _, w := range []struct {
		name string
		fn   func(graph.Edge) float64
	}{{"mild", mild}, {"heavy", heavy}} {
		for _, halfLife := range []float64{0, 10} {
			name := fmt.Sprintf("%s/half-life %g", w.name, halfLife)
			s := handSample(t, edges, w.fn, 1, halfLife)
			requirePerEdgeMatch(t, name, s)
			requireOwnerRule(t, name, s)
		}
	}
}

// postBench holds the samples the Algorithm 2 benchmarks share, built once.
var postBench struct {
	once    sync.Once
	samples []estimatorFamily
}

// postBenchSamples builds samples shaped like the repo benchmark's
// workloads, smaller so they build in about a second:
//   - replay: triangle weight over a permuted R-MAT stream, dense, with
//     hubs of a few hundred sampled neighbours;
//   - decayed: replay's stream timed by position, with a half-life of a
//     quarter of it, so each owner's run is sorted by decay;
//   - live: triangle weight, two hash shards merged to m = 5000, sparse;
//   - ingest: uniform weight over disjoint copies of an R-MAT graph, with
//     about as many nodes as edges.
func postBenchSamples(b *testing.B) []estimatorFamily {
	postBench.once.Do(func() {
		sampler := func(cfg Config) *Sampler {
			s, err := NewSampler(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
		rmat := func(scale int, seed uint64) []graph.Edge {
			return stream.Collect(stream.Permute(gen.RMAT(scale, 16, 0.57, 0.19, 0.19, seed), seed))
		}

		edges := rmat(14, 3)
		replay := sampler(Config{Capacity: 20_000, Weight: TriangleWeight, Seed: 3})
		replay.ProcessBatch(edges)

		decayed := sampler(Config{Capacity: 20_000, Weight: TriangleWeight, Seed: 3,
			Decay: Decay{HalfLife: float64(len(edges)) / 4}})
		for i, e := range edges {
			decayed.Process(e.At(uint64(i + 1)))
		}

		cfg := Config{Capacity: 5000, Weight: TriangleWeight}
		shards := []*Sampler{sampler(Config{Capacity: 5000, Weight: TriangleWeight, Seed: 7}),
			sampler(Config{Capacity: 5000, Weight: TriangleWeight, Seed: 8})}
		for _, e := range rmat(15, 5) {
			shards[randx.Mix64(e.Key())%2].Process(e)
		}
		live, err := Merge(shards, cfg)
		if err != nil {
			b.Fatal(err)
		}

		ingest := sampler(Config{Capacity: 20_000, Seed: 3})
		base := gen.RMAT(12, 16, 0.57, 0.19, 0.19, 3)
		for c := range graph.NodeID(20) {
			for _, e := range base {
				ingest.Process(graph.NewEdge(e.U+c<<12, e.V+c<<12))
			}
		}
		postBench.samples = []estimatorFamily{{"replay", replay}, {"decayed", decayed}, {"live", live}, {"ingest", ingest}}
	})
	return postBench.samples
}

var postBenchSink Estimates

// BenchmarkEstimatePost times the Algorithm 2 kernel (EstimatePost) and
// the per-edge reference it replaced on the same samples.
func BenchmarkEstimatePost(b *testing.B) {
	for _, sample := range postBenchSamples(b) {
		for _, impl := range []struct {
			name string
			fn   func(*Sampler) Estimates
		}{{"kernel", EstimatePost}, {"per-edge", estimatePostPerEdge}} {
			b.Run(sample.name+"/"+impl.name, func(b *testing.B) {
				for b.Loop() {
					postBenchSink = impl.fn(sample.s)
				}
			})
		}
	}
}
