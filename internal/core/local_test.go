package core

import (
	"math"
	"testing"

	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/stats"
	"gps/internal/stream"
)

// exactLocalTriangles counts triangles per node by enumeration.
func exactLocalTriangles(edges []graph.Edge) map[graph.NodeID]int64 {
	out := map[graph.NodeID]int64{}
	for _, tr := range triangleList(edges) {
		nodes := map[graph.NodeID]bool{}
		for _, e := range tr {
			nodes[e.U] = true
			nodes[e.V] = true
		}
		for v := range nodes {
			out[v]++
		}
	}
	return out
}

func TestLocalExactWhenReservoirHoldsEverything(t *testing.T) {
	edges := smallTestGraph()
	want := exactLocalTriangles(edges)

	s, _ := NewSampler(Config{Capacity: len(edges) + 1, Seed: 1, Weight: TriangleWeight})
	stream.Drive(stream.Permute(edges, 2), func(e graph.Edge) { s.Process(e) })
	got := EstimateLocalPost(s)
	for v, exactCount := range want {
		if math.Abs(got[v]-float64(exactCount)) > 1e-9 {
			t.Fatalf("post node %d: %v, want %d", v, got[v], exactCount)
		}
	}

	in, _ := NewInStreamLocal(Config{Capacity: len(edges) + 1, Seed: 1, Weight: TriangleWeight})
	stream.Drive(stream.Permute(edges, 2), func(e graph.Edge) { in.Process(e) })
	for v, exactCount := range want {
		if math.Abs(in.Counts()[v]-float64(exactCount)) > 1e-9 {
			t.Fatalf("in-stream node %d: %v, want %d", v, in.Counts()[v], exactCount)
		}
	}
}

func TestLocalTotalIsThriceGlobal(t *testing.T) {
	edges := smallTestGraph()
	s, _ := NewSampler(Config{Capacity: 60, Seed: 3, Weight: TriangleWeight})
	stream.Drive(stream.Permute(edges, 4), func(e graph.Edge) { s.Process(e) })
	local := EstimateLocalPost(s)
	global := EstimatePost(s)
	if math.Abs(local.Total()-3*global.Triangles) > 1e-6*(global.Triangles+1) {
		t.Fatalf("local total %v != 3×global %v", local.Total(), 3*global.Triangles)
	}
}

func TestLocalInStreamUnbiasedMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo test skipped in -short mode")
	}
	edges := smallTestGraph()
	want := exactLocalTriangles(edges)
	truthTotal := float64(exact.Count(graph.BuildStatic(edges)).Triangles)

	// Track the per-node estimate of the most triangle-heavy node plus
	// the global sum.
	var heavy graph.NodeID
	var best int64
	for v, c := range want {
		if c > best {
			best, heavy = c, v
		}
	}
	const trials = 2000
	var nodeW, totalW stats.Welford
	for i := 0; i < trials; i++ {
		seed := uint64(4400 + i)
		in, _ := NewInStreamLocal(Config{Capacity: 60, Seed: seed, Weight: TriangleWeight})
		stream.Drive(stream.Permute(edges, seed^0x1234), func(e graph.Edge) { in.Process(e) })
		nodeW.Add(in.Counts()[heavy])
		totalW.Add(in.Counts().Total())
	}
	if diff := math.Abs(nodeW.Mean() - float64(best)); diff > 5*nodeW.StdErr()+1e-9 {
		t.Errorf("node %d: mean %v vs truth %d (stderr %v)", heavy, nodeW.Mean(), best, nodeW.StdErr())
	}
	if diff := math.Abs(totalW.Mean() - 3*truthTotal); diff > 5*totalW.StdErr()+1e-9 {
		t.Errorf("total: mean %v vs truth %v (stderr %v)", totalW.Mean(), 3*truthTotal, totalW.StdErr())
	}
}

func TestLocalRanksHubs(t *testing.T) {
	// On a clustered graph, per-node estimates at 30% sampling should
	// place the true top node within the estimated top handful.
	edges := gen.HolmeKim(150, 4, 0.8, 9)
	want := exactLocalTriangles(edges)
	var heavy graph.NodeID
	var best int64
	for v, c := range want {
		if c > best {
			best, heavy = c, v
		}
	}
	in, _ := NewInStreamLocal(Config{Capacity: len(edges) / 3, Seed: 10, Weight: TriangleWeight})
	stream.Drive(stream.Permute(edges, 11), func(e graph.Edge) { in.Process(e) })
	rank := 0
	heavyEst := in.Counts()[heavy]
	for _, c := range in.Counts() {
		if c > heavyEst {
			rank++
		}
	}
	if rank > 5 {
		t.Errorf("true top node ranked %d by estimates", rank+1)
	}
}

func TestInStreamLocalDuplicates(t *testing.T) {
	in, _ := NewInStreamLocal(Config{Capacity: 8, Seed: 1})
	e := graph.NewEdge(0, 1)
	in.Process(e)
	in.Process(e)
	if in.Sampler().Duplicates() != 1 {
		t.Fatalf("Duplicates = %d", in.Sampler().Duplicates())
	}
}

// TestInStreamLocalDeletions: deleting a sampled edge retracts the shares
// of the triangles it closes and removes it from the sample, and deleting
// an unsampled edge that would close a triangle credits nothing.
func TestInStreamLocalDeletions(t *testing.T) {
	tri := []graph.Edge{graph.NewEdge(1, 2), graph.NewEdge(2, 3), graph.NewEdge(1, 3)}
	zero := LocalTriangles{1: 0, 2: 0, 3: 0}
	check := func(step string, in *InStreamLocal, want LocalTriangles, applied, unsampled uint64) {
		t.Helper()
		for v, c := range want {
			if got := in.Counts()[v]; got != c {
				t.Fatalf("%s: node %d count %v, want %v (counts %v)", step, v, got, c, in.Counts())
			}
		}
		if a, u := in.Sampler().Deletions(); a != applied || u != unsampled {
			t.Fatalf("%s: deletions %d applied, %d unsampled; want %d, %d", step, a, u, applied, unsampled)
		}
		if d := in.Sampler().Duplicates(); d != 0 {
			t.Fatalf("%s: %d duplicates, want 0", step, d)
		}
	}

	in, _ := NewInStreamLocal(Config{Capacity: 8, Seed: 1})
	for _, e := range tri {
		in.Process(e)
	}
	check("triangle", in, LocalTriangles{1: 1, 2: 1, 3: 1}, 0, 0)
	in.Process(tri[2].AsDeletion())
	check("resident deletion", in, zero, 1, 0)
	if in.Sampler().res.Contains(tri[2]) {
		t.Fatal("deleted edge is still sampled")
	}
	in.Process(tri[2])
	check("re-insertion", in, LocalTriangles{1: 1, 2: 1, 3: 1}, 1, 0)

	in, _ = NewInStreamLocal(Config{Capacity: 8, Seed: 1})
	in.Process(tri[0])
	in.Process(tri[1])
	in.Process(tri[2].AsDeletion())
	check("absent deletion", in, zero, 0, 1)
}
