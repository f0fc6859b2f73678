// Package gps is the public API of the Graph Priority Sampling library, a
// reproduction of "On Sampling from Massive Graph Streams" (Ahmed, Duffield,
// Willke, Rossi; VLDB 2017).
//
// GPS maintains a fixed-size, weight-sensitive sample of a graph edge stream
// in one pass. Arriving edges are assigned priorities w(k)/u(k), where the
// weight w(k) = W(k,K̂) may depend on the topology of the current sample
// (e.g. how many sampled triangles the edge completes) and u(k) is uniform
// on (0,1]; the reservoir keeps the m highest-priority edges. Conditional on
// the threshold z* (the (m+1)-st highest priority seen), each retained edge
// has Horvitz-Thompson inclusion probability min{1, w(k)/z*}, and products
// of the resulting edge estimators are unbiased for subgraph indicators —
// the Martingale argument that underpins every estimator here.
//
// # Sampling
//
// Create a Sampler (or an InStream, which wraps one) and feed it edges:
//
//	s, _ := gps.NewSampler(gps.Config{Capacity: 100_000, Weight: gps.TriangleWeight, Seed: 1})
//	for _, e := range edges {
//		s.Process(e)
//	}
//
// Buffered ingestion can use Sampler.ProcessBatch, which is exactly
// equivalent to per-edge Process; high-rate streams should use the
// sharded Parallel sampler, which partitions the stream across
// per-goroutine reservoirs and merges them on demand:
//
//	p, _ := gps.NewParallel(gps.Config{Capacity: 100_000, Seed: 1}, 8)
//	p.ProcessBatch(edges)
//	merged, _ := p.Merge() // a *Sampler over everything fed so far
//	p.Close()
//
// # Estimation
//
// Post-stream estimation (Algorithm 2) answers retrospective queries from
// the sample at any time:
//
//	est := gps.EstimatePost(s)
//	fmt.Println(est.Triangles, est.TriangleInterval())
//
// In-stream estimation (Algorithm 3) maintains running estimates with lower
// variance while sampling:
//
//	in, _ := gps.NewInStream(gps.Config{Capacity: 100_000, Weight: gps.TriangleWeight})
//	for _, e := range edges {
//		in.Process(e)
//	}
//	fmt.Println(in.Estimates().Triangles)
//
// Arbitrary subgraphs can be estimated through Sampler.SubgraphEstimate and
// friends; triangle and wedge counting are the built-in special cases.
//
// # Temporal sampling
//
// Activity streams are temporal: recent edges matter more. Config.Decay
// enables forward-decay sampling — each edge's weight is boosted by
// exp(λ·(t−L)) for its event time t (edge timestamps, or arrival order on
// untimed streams), so the reservoir concentrates on recent structure
// while ranks stay comparable forever (no rescans, and shards still
// merge). EstimatePost and InStream then target the *decayed* counts at
// the stream's event horizon: every motif weighted by 2^{-(age of its
// oldest edge)/half-life}.
//
//	s, _ := gps.NewSampler(gps.Config{Capacity: 100_000, Decay: gps.Decay{HalfLife: 3600}})
//
// # Durability
//
// The whole sampling data plane serializes to GPSC checkpoint documents
// and restores bit-identically: a restored sampler (ReadCheckpoint),
// in-stream estimator (ReadInStreamCheckpoint) or sharded engine
// (ReadParallelCheckpoint) fed the remaining stream reproduces the
// uninterrupted run exactly — reservoir, RNG state, threshold, counters
// and estimator accumulators all survive.
//
//	var buf bytes.Buffer
//	_ = s.WriteCheckpoint(&buf, "triangle")
//	restored, _ := gps.ReadCheckpoint(&buf, nil)
//
// cmd/gps-serve persists and restores checkpoints automatically
// (-checkpoint-dir, -checkpoint-every, -restore), and cmd/gps-sample can
// resume an interrupted run (-checkpoint-out, -restore).
//
// The examples/ directory contains runnable programs, and internal/
// experiments regenerates every table and figure of the paper's evaluation.
package gps

import (
	"io"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/graph"
	"gps/internal/stats"
	"gps/internal/stream"
)

// NodeID identifies a vertex (32-bit).
type NodeID = graph.NodeID

// Edge is a canonical undirected edge (U < V).
type Edge = graph.Edge

// NewEdge returns the canonical undirected edge {a,b}; it panics if a == b.
func NewEdge(a, b NodeID) Edge { return graph.NewEdge(a, b) }

// NewEdgeAt is NewEdge carrying an event timestamp (0 means untimed).
func NewEdgeAt(a, b NodeID, ts uint64) Edge { return graph.NewEdgeAt(a, b, ts) }

// Decay configures forward-decay (time-decayed) sampling: a half-life in
// event-time units and an optional explicit landmark. The zero value
// disables decay. See Config.Decay and the core package notes for the
// estimator semantics (decayed counts at the stream's event horizon).
type Decay = core.Decay

// Config parameterizes a Sampler: reservoir capacity m, weight function
// W(k,K̂) (nil means uniform weights) and RNG seed.
type Config = core.Config

// Sampler implements Algorithm 1, GPS(m).
type Sampler = core.Sampler

// Reservoir is the sampled subgraph K̂, exposed to weight functions and for
// topology queries.
type Reservoir = core.Reservoir

// WeightFunc computes the sampling weight W(k,K̂) of an arriving edge.
type WeightFunc = core.WeightFunc

// Estimates holds unbiased count and variance estimates; see the methods on
// core.Estimates for clustering coefficients and confidence intervals.
type Estimates = core.Estimates

// InStream couples a Sampler with Algorithm 3's snapshot estimation.
type InStream = core.InStream

// Interval is a two-sided 95% confidence interval.
type Interval = stats.Interval

// NewSampler returns a GPS sampler for the given configuration.
func NewSampler(cfg Config) (*Sampler, error) { return core.NewSampler(cfg) }

// Parallel is a sharded GPS sampler: the stream is hash-partitioned across
// per-goroutine reservoirs and merged on demand (see NewParallel).
type Parallel = engine.Parallel

// NewParallel returns a sharded sampler with the given shard count
// (shards <= 0 means GOMAXPROCS). Feed it via Process/ProcessBatch — all
// methods are safe for concurrent use — call Merge for a sequential Sampler
// over everything fed so far (or Snapshot for the same result with a much
// shorter ingestion stall: shards are cloned under the lock and merged
// outside it), and Close when done.
//
// For stream-independent weights (UniformWeight) the merged sample is
// distributed exactly as a sequential GPS(m) sample of the whole stream —
// priority sampling is mergeable. For topology-dependent weights
// (TriangleWeight, AdjacencyWeight) each shard scores arrivals against its
// own partial reservoir, so the weight targeting is approximate while the
// Horvitz-Thompson normalization stays valid. A weight function must be
// stateless here: shards share the function and call it concurrently.
func NewParallel(cfg Config, shards int) (*Parallel, error) { return engine.NewParallel(cfg, shards) }

// MergeSamplers combines reservoirs of samplers that processed disjoint
// substreams into one sampler over the union stream: the cfg.Capacity
// highest priorities survive and the threshold becomes the largest
// priority excluded anywhere. It is the merge primitive behind
// Parallel.Merge, exported for custom partitioning schemes (e.g. merging
// samples taken on different machines).
func MergeSamplers(samplers []*Sampler, cfg Config) (*Sampler, error) {
	return core.Merge(samplers, cfg)
}

// NewInStream returns an in-stream estimator with a fresh sampler.
func NewInStream(cfg Config) (*InStream, error) { return core.NewInStream(cfg) }

// ReadCheckpoint restores a Sampler from a GPSC checkpoint document
// written by Sampler.WriteCheckpoint. The reservoir, RNG state, threshold
// and counters come back bit for bit: fed the remaining stream, the
// restored sampler evolves exactly like the original would have. resolve
// maps the recorded weight name back to a function (nil means
// ResolveWeight); it must return the function the checkpointed sampler
// ran.
func ReadCheckpoint(r io.Reader, resolve func(string) (WeightFunc, error)) (*Sampler, error) {
	return core.ReadCheckpoint(r, resolve)
}

// ReadInStreamCheckpoint restores an in-stream estimator (sampler plus
// Algorithm 3 accumulators) from a GPSC document written by
// InStream.WriteCheckpoint, also returning the recorded stream binding —
// compare it against the stream about to be replayed before resuming.
func ReadInStreamCheckpoint(r io.Reader, resolve func(string) (WeightFunc, error)) (*InStream, string, error) {
	return core.ReadInStreamCheckpoint(r, resolve)
}

// ReadParallelCheckpoint restores a sharded sampler from a GPSC engine
// document written by Parallel.WriteCheckpoint, returning the engine and
// the weight name the checkpoint records. Every shard reservoir and RNG
// state is restored bit for bit, so the engine resumes exactly where the
// original stopped.
func ReadParallelCheckpoint(r io.Reader, resolve func(string) (WeightFunc, error)) (*Parallel, string, error) {
	return engine.ReadParallelCheckpoint(r, resolve)
}

// ResolveWeight maps a checkpoint's recorded weight name to the built-in
// weight function of that name ("", "uniform", "triangle", "adjacency").
func ResolveWeight(name string) (WeightFunc, error) { return core.ResolveWeight(name) }

// EstimatePost runs Algorithm 2 over the sampler's current reservoir.
func EstimatePost(s *Sampler) Estimates { return core.EstimatePost(s) }

// Built-in weight functions (§3.2, §3.5, §4 of the paper).
var (
	// UniformWeight reduces GPS to plain uniform reservoir sampling.
	UniformWeight WeightFunc = core.UniformWeight
	// TriangleWeight is the paper's triangle-focused weight 9·|△̂(k)|+1.
	TriangleWeight WeightFunc = core.TriangleWeight
	// AdjacencyWeight weights an edge by its sampled adjacencies plus 1.
	AdjacencyWeight WeightFunc = core.AdjacencyWeight
)

// NewTriangleWeight returns W(k,K̂) = coef·|△̂(k)| + base.
func NewTriangleWeight(coef, base float64) WeightFunc {
	return core.NewTriangleWeight(coef, base)
}

// NewAdjacencyWeight returns W(k,K̂) = coef·(deg(u)+deg(v)) + base.
func NewAdjacencyWeight(coef, base float64) WeightFunc {
	return core.NewAdjacencyWeight(coef, base)
}

// EstimateCliques4Post returns the unbiased 4-clique count estimate from the
// sampler's reservoir — the "cliques" case of the paper's generic subgraph
// framework.
func EstimateCliques4Post(s *Sampler) float64 { return core.EstimateCliques4Post(s) }

// EstimateStars3Post returns the unbiased 3-star (claw) count estimate
// Σ_v C(deg v, 3) — the "stars" case of the framework (wedges are 2-stars).
func EstimateStars3Post(s *Sampler) float64 { return core.EstimateStars3Post(s) }

// LocalTriangles maps nodes to per-node triangle count estimates.
type LocalTriangles = core.LocalTriangles

// EstimateLocalPost computes per-node triangle estimates from the sampler's
// current reservoir.
func EstimateLocalPost(s *Sampler) LocalTriangles { return core.EstimateLocalPost(s) }

// InStreamLocal couples a sampler with in-stream per-node triangle
// estimation.
type InStreamLocal = core.InStreamLocal

// NewInStreamLocal returns an in-stream local triangle estimator.
func NewInStreamLocal(cfg Config) (*InStreamLocal, error) { return core.NewInStreamLocal(cfg) }

// CombineWeights returns the positively-weighted sum of weight functions.
func CombineWeights(coefs []float64, fns []WeightFunc) WeightFunc {
	return core.CombineWeights(coefs, fns)
}

// Stream is a source of edge arrivals.
type Stream = stream.Stream

// FromEdges streams an in-memory edge slice in order.
func FromEdges(edges []Edge) Stream { return stream.FromEdges(edges) }

// Permute streams a seeded pseudo-random permutation of edges — the paper's
// stream model for static graphs.
func Permute(edges []Edge, seed uint64) Stream { return stream.Permute(edges, seed) }

// Simplify wraps a stream, dropping duplicate edges.
func Simplify(in Stream) Stream { return stream.Simplify(in) }

// Drive feeds every edge of s to fn.
func Drive(s Stream, fn func(Edge)) { stream.Drive(s, fn) }

// ReadStats reports what a reader skipped while decoding a stream; both
// formats share one self-loop policy (skip, count, keep positions aligned).
type ReadStats = stream.ReadStats

// ReadEdgeList parses a whitespace-separated "u v" (or timestamped
// "u v ts") edge list with '#'/'%' comments, skipping and counting self
// loops under the shared reader policy.
func ReadEdgeList(r io.Reader) ([]Edge, error) { return stream.ReadEdgeList(r) }

// WriteEdgeList writes edges in the format accepted by ReadEdgeList
// (three columns for edges carrying timestamps).
func WriteEdgeList(w io.Writer, edges []Edge) error { return stream.WriteEdgeList(w, edges) }

// ReadBinary decodes the compact GPSB binary edge framing (varint records;
// v2 adds delta-encoded event timestamps): the wire format of the live
// sampling service and of gps-gen -format binary. Malformed input returns
// an error, never panics; self loops are skipped and counted.
func ReadBinary(r io.Reader) ([]Edge, error) { return stream.ReadBinary(r) }

// WriteBinary writes edges in the binary framing accepted by ReadBinary,
// as v2 when any edge carries a timestamp and byte-identical v1 otherwise.
func WriteBinary(w io.Writer, edges []Edge) error { return stream.WriteBinary(w, edges) }

// ReadEdges reads a complete edge stream in either supported format,
// sniffing the binary magic and falling back to the text edge list.
func ReadEdges(r io.Reader) ([]Edge, error) { return stream.ReadEdges(r) }

// ReadEdgesStats is ReadEdges also reporting what was skipped.
func ReadEdgesStats(r io.Reader) ([]Edge, ReadStats, error) { return stream.ReadEdgesStats(r) }
