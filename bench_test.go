package gps_test

// This file is the benchmark harness required by the reproduction: one
// benchmark per table and figure of the paper's evaluation (§6), each of
// which regenerates the corresponding rows/series against the synthetic
// stand-in datasets, plus micro-benchmarks substantiating the paper's
// "average update times of a few microseconds per edge" claim.
//
// The table/figure benchmarks print their output once (the first iteration)
// so that `go test -bench=.` reproduces the evaluation artifacts; subsequent
// iterations measure regeneration time. EXPERIMENTS.md records the
// paper-vs-measured comparison for each.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"gps"
	"gps/internal/baselines"
	"gps/internal/datasets"
	"gps/internal/experiments"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/stream"
)

// benchOpts keeps the full regeneration affordable: Small-profile datasets,
// a handful of replications, sample sizes scaled to the stand-ins the same
// way the paper's 200K/100K/80K samples relate to its graphs.
var benchOpts = experiments.Options{Trials: 3, Seed: 0xBE9C}

var printOnce sync.Map

func printFirst(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, text)
	}
}

// BenchmarkTable1 regenerates Table 1: GPS in-stream vs post-stream
// estimates of triangles, wedges and clustering over the 11 Table-1 graphs.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts, 20000, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Table 1 (m=20K, small profile)", experiments.RenderTable1(rows))
	}
}

// BenchmarkTable2 regenerates Table 2: ARE and update time for NSAMP,
// TRIEST, MASCOT and GPS post-stream at an equal edge budget.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchOpts, 10000, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Table 2 (budget=10K, small profile)", experiments.RenderTable2(rows))
	}
}

// BenchmarkTable3 regenerates Table 3: MARE and max-ARE of triangle-count
// tracking versus time for TRIEST, TRIEST-IMPR and the two GPS estimators.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchOpts, 8000, 20, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Table 3 (m=8K, 20 checkpoints)", experiments.RenderTable3(rows))
	}
}

// BenchmarkFigure1 regenerates Figure 1: the x̂/x scatter for triangles and
// wedges under in-stream estimation.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure1(benchOpts, 10000, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Figure 1 (m=10K)", experiments.RenderFigure1(pts))
	}
}

// BenchmarkFigure2 regenerates Figure 2: triangle-count convergence with
// 95% bounds as the sample size sweeps.
func BenchmarkFigure2(b *testing.B) {
	sizes := []int{2500, 5000, 10000, 20000, 40000}
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure2(benchOpts, sizes, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Figure 2 (m=2.5K..40K)", experiments.RenderFigure2(series))
	}
}

// BenchmarkFigure3 regenerates Figure 3: real-time tracking of triangle
// counts and clustering with confidence bands.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure3(benchOpts, 8000, 20, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Figure 3 (m=8K, 20 checkpoints)", experiments.RenderFigure3(series))
	}
}

// BenchmarkAblationWeights regenerates the §3.5 design-choice ablation:
// estimation error and variance per weight function.
func BenchmarkAblationWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WeightAblation(benchOpts, 8000, "socfb-Penn94")
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Weight ablation (socfb-Penn94, m=8K)", experiments.RenderAblation(rows))
	}
}

// BenchmarkExtensions regenerates the comparisons the paper ran but omitted:
// the JHA birthday-paradox sampler and the Buriol 3-node sampler vs GPS.
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Extensions(benchOpts, 10000, nil)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "Extensions (budget=10K)", experiments.RenderExtensions(rows))
	}
}

// --- Micro-benchmarks: per-edge update cost (§3.2 S4, Table 2 time block) ---

var microData struct {
	once  sync.Once
	edges []graph.Edge
}

func microEdges(b *testing.B) []graph.Edge {
	microData.once.Do(func() {
		d, err := datasets.Get("socfb-Penn94")
		if err != nil {
			b.Fatal(err)
		}
		microData.edges = stream.Collect(stream.Permute(d.Edges(datasets.Small), 99))
	})
	return microData.edges
}

// benchPerEdge runs full passes of fn over the prepared stream and reports
// nanoseconds per processed edge.
func benchPerEdge(b *testing.B, makeSink func(seed uint64) func(graph.Edge)) {
	edges := microEdges(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := makeSink(uint64(i + 1))
		for _, e := range edges {
			sink(e)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}

func BenchmarkGPSUpdateUniform(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		s, _ := gps.NewSampler(gps.Config{Capacity: 10000, Weight: gps.UniformWeight, Seed: seed})
		return func(e graph.Edge) { s.Process(e) }
	})
}

func BenchmarkGPSUpdateTriangle(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		s, _ := gps.NewSampler(gps.Config{Capacity: 10000, Weight: gps.TriangleWeight, Seed: seed})
		return func(e graph.Edge) { s.Process(e) }
	})
}

func BenchmarkGPSUpdateAdjacency(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		s, _ := gps.NewSampler(gps.Config{Capacity: 10000, Weight: gps.AdjacencyWeight, Seed: seed})
		return func(e graph.Edge) { s.Process(e) }
	})
}

// BenchmarkGPSInStreamUpdate measures the combined estimate+update cost of
// Algorithm 3 per edge.
func BenchmarkGPSInStreamUpdate(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		in, _ := gps.NewInStream(gps.Config{Capacity: 10000, Weight: gps.TriangleWeight, Seed: seed})
		return func(e graph.Edge) { in.Process(e) }
	})
}

func BenchmarkTriestUpdate(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		tr, _ := baselines.NewTriest(10000, seed)
		return tr.Process
	})
}

func BenchmarkTriestImprUpdate(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		tr, _ := baselines.NewTriestImpr(10000, seed)
		return tr.Process
	})
}

func BenchmarkMascotUpdate(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		ms, _ := baselines.NewMascot(0.1, seed)
		return ms.Process
	})
}

func BenchmarkNSampUpdate(b *testing.B) {
	benchPerEdge(b, func(seed uint64) func(graph.Edge) {
		ns, _ := baselines.NewNSamp(5000, seed)
		return ns.Process
	})
}

// BenchmarkGPSProcessBatch measures the batched feeding path; it must match
// per-edge Process decisions exactly (and, empirically, its cost — the
// per-edge sampling work dominates call overhead).
func BenchmarkGPSProcessBatchUniform(b *testing.B) {
	edges := microEdges(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := gps.NewSampler(gps.Config{Capacity: 10000, Weight: gps.UniformWeight, Seed: uint64(i + 1)})
		for lo := 0; lo < len(edges); lo += 8192 {
			hi := lo + 8192
			if hi > len(edges) {
				hi = len(edges)
			}
			s.ProcessBatch(edges[lo:hi])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}

func BenchmarkGPSProcessBatchTriangle(b *testing.B) {
	edges := microEdges(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := gps.NewSampler(gps.Config{Capacity: 10000, Weight: gps.TriangleWeight, Seed: uint64(i + 1)})
		for lo := 0; lo < len(edges); lo += 8192 {
			hi := lo + 8192
			if hi > len(edges) {
				hi = len(edges)
			}
			s.ProcessBatch(edges[lo:hi])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}

// --- Engine benchmarks: sequential vs sharded over a ≥1M-edge stream ---

var engineData struct {
	once  sync.Once
	edges []graph.Edge
}

// engineEdges prepares a 1M+-edge R-MAT stream (heavy-tailed, triangle-rich)
// once per benchmark binary run.
func engineEdges(b *testing.B) []graph.Edge {
	engineData.once.Do(func() {
		all := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 0xE9619E)
		engineData.edges = stream.Collect(stream.Permute(all, 7))
	})
	if len(engineData.edges) < 1_000_000 {
		b.Fatalf("engine stream only %d edges", len(engineData.edges))
	}
	return engineData.edges
}

func benchEngineSequential(b *testing.B, weight gps.WeightFunc) {
	edges := engineEdges(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := gps.NewSampler(gps.Config{Capacity: 100000, Weight: weight, Seed: uint64(i + 1)})
		s.ProcessBatch(edges)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}

func benchEngineParallel(b *testing.B, weight gps.WeightFunc, shards int) {
	edges := engineEdges(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := gps.NewParallel(gps.Config{Capacity: 100000, Weight: weight, Seed: uint64(i + 1)}, shards)
		if err != nil {
			b.Fatal(err)
		}
		p.ProcessBatch(edges)
		if _, err := p.Merge(); err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}

func BenchmarkEngineSequentialUniform1M(b *testing.B) { benchEngineSequential(b, gps.UniformWeight) }
func BenchmarkEngineParallel4Uniform1M(b *testing.B)  { benchEngineParallel(b, gps.UniformWeight, 4) }
func BenchmarkEngineSequentialTriangle1M(b *testing.B) {
	benchEngineSequential(b, gps.TriangleWeight)
}
func BenchmarkEngineParallel4Triangle1M(b *testing.B) {
	benchEngineParallel(b, gps.TriangleWeight, 4)
}

// BenchmarkEstimatePost measures one full Algorithm 2 scan over a 10K-edge
// reservoir (the retrospective-query cost) on the slot-indexed fast path.
func BenchmarkEstimatePost(b *testing.B) {
	edges := microEdges(b)
	s, _ := gps.NewSampler(gps.Config{Capacity: 10000, Weight: gps.TriangleWeight, Seed: 5})
	for _, e := range edges {
		s.Process(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gps.EstimatePost(s)
	}
}

// estimate100K builds the m=100K triangle-weighted sampler over the
// 1M-edge engine stream that BenchmarkEstimatePost100K scans.
var estimate100K struct {
	once sync.Once
	s    *gps.Sampler
}

func estimate100KSampler(b *testing.B) *gps.Sampler {
	estimate100K.once.Do(func() {
		s, _ := gps.NewSampler(gps.Config{Capacity: 100000, Weight: gps.TriangleWeight, Seed: 5})
		s.ProcessBatch(engineEdges(b))
		estimate100K.s = s
	})
	return estimate100K.s
}

// BenchmarkEstimatePost100K measures the Algorithm 2 scan at the service
// scale (m=100K over a 1M-edge R-MAT stream) on the slot-indexed fast path.
func BenchmarkEstimatePost100K(b *testing.B) {
	s := estimate100KSampler(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gps.EstimatePost(s)
	}
}

// --- Service-layer benchmarks: snapshot pause and wire-format codec ---

// BenchmarkEngineSnapshot1M measures the full low-pause query path of the
// live service — barrier + dirty-shard clone + merge — on a 100K-edge
// reservoir over the 1M-edge engine stream, with every shard dirtied
// before each snapshot (the worst case: all shards clone every time).
func BenchmarkEngineSnapshot1M(b *testing.B) {
	edges := engineEdges(b)
	p, err := gps.NewParallel(gps.Config{Capacity: 100000, Seed: 9}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(edges)
	base := snapshotStatsBase(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Replayed edges dirty every shard without changing the sample
		// distribution materially between iterations.
		p.ProcessBatch(edges[:4096])
		b.StartTimer()
		if _, err := p.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	reportSnapshotStall(b, p, base)
}

// BenchmarkEngineSnapshot1MDirty1of4 is the incremental-snapshot case the
// dirty-shard tracking exists for: between snapshots only one of the four
// shards receives traffic, so a refresh clones 1/4 of the reservoir and
// reuses the other three immutable clones.
func BenchmarkEngineSnapshot1MDirty1of4(b *testing.B) {
	edges := engineEdges(b)
	p, err := gps.NewParallel(gps.Config{Capacity: 100000, Seed: 9}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(edges)
	var targeted []graph.Edge
	for _, e := range edges {
		if p.ShardOf(e) == 0 {
			targeted = append(targeted, e)
			if len(targeted) == 4096 {
				break
			}
		}
	}
	if _, err := p.Snapshot(); err != nil { // prime the per-shard clones
		b.Fatal(err)
	}
	base := snapshotStatsBase(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p.ProcessBatch(targeted)
		b.StartTimer()
		if _, err := p.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	reportSnapshotStall(b, p, base)
}

// BenchmarkEngineSnapshot1MClean measures a snapshot with nothing ingested
// since the last one: the barrier and the per-shard epoch check, which
// find every shard clean and return the cached merged sampler — no clone
// and no merge.
func BenchmarkEngineSnapshot1MClean(b *testing.B) {
	edges := engineEdges(b)
	p, err := gps.NewParallel(gps.Config{Capacity: 100000, Seed: 9}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(edges)
	if _, err := p.Snapshot(); err != nil {
		b.Fatal(err)
	}
	base := snapshotStatsBase(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	reportSnapshotStall(b, p, base)
}

type snapStatsBase struct{ snapshots, cloned uint64 }

// snapshotStatsBase records the counters after priming so the reported
// clones/snap covers only the timed iterations, not the setup snapshots.
func snapshotStatsBase(p *gps.Parallel) snapStatsBase {
	snapshots, cloned, _ := p.SnapshotStats()
	return snapStatsBase{snapshots: snapshots, cloned: cloned}
}

func reportSnapshotStall(b *testing.B, p *gps.Parallel, base snapStatsBase) {
	b.Helper()
	b.ReportMetric(float64(p.LastSnapshotStall().Nanoseconds())/1e6, "stall-ms")
	snapshots, cloned, _ := p.SnapshotStats()
	if n := snapshots - base.snapshots; n > 0 {
		b.ReportMetric(float64(cloned-base.cloned)/float64(n), "clones/snap")
	}
}

// BenchmarkBinaryEncode measures the GPSB wire-format encoder, ns/edge.
func BenchmarkBinaryEncode(b *testing.B) {
	edges := engineEdges(b)[:1_000_000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gps.WriteBinary(io.Discard, edges); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}

// BenchmarkBinaryDecode measures the GPSB wire-format decoder, ns/edge.
func BenchmarkBinaryDecode(b *testing.B) {
	edges := engineEdges(b)[:1_000_000]
	var buf bytes.Buffer
	if err := gps.WriteBinary(&buf, edges); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := gps.ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(edges) {
			b.Fatalf("decoded %d edges, want %d", len(got), len(edges))
		}
	}
	b.ReportMetric(float64(buf.Len())/float64(len(edges)), "bytes/edge")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}

// BenchmarkEngineCheckpoint1M measures persisting the whole sharded data
// plane — barrier + dirty clone + GPSC serialization — on a 100K-edge
// reservoir over the 1M-edge engine stream, with every shard dirtied
// before each checkpoint (the worst case: all four blobs re-serialized).
func BenchmarkEngineCheckpoint1M(b *testing.B) {
	edges := engineEdges(b)
	p, err := gps.NewParallel(gps.Config{Capacity: 100000, Seed: 9}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(edges)
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p.ProcessBatch(edges[:4096]) // dirty every shard
		b.StartTimer()
		var buf bytes.Buffer
		if _, err := p.WriteCheckpoint(&buf, "uniform"); err != nil {
			b.Fatal(err)
		}
		total += int64(buf.Len())
	}
	b.ReportMetric(float64(total)/float64(b.N)/(1<<20), "MiB/ckpt")
}

// BenchmarkEngineCheckpoint1MIdle is the cached case: nothing moved since
// the previous checkpoint, so every shard blob is reused verbatim and the
// checkpoint degenerates to writing cached bytes.
func BenchmarkEngineCheckpoint1MIdle(b *testing.B) {
	edges := engineEdges(b)
	p, err := gps.NewParallel(gps.Config{Capacity: 100000, Seed: 9}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(edges)
	if _, err := p.WriteCheckpoint(io.Discard, "uniform"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.WriteCheckpoint(io.Discard, "uniform"); err != nil {
			b.Fatal(err)
		}
	}
	_, encoded, reused := p.CheckpointStats()
	b.ReportMetric(float64(reused)/float64(encoded+reused), "blob-reuse-frac")
}
