package engine

import (
	"io"

	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/obs"
)

// Stream is the engine abstraction the serving layer programs against: one
// live sampled graph stream, whatever its time model. Both engine shapes —
// the plain sharded Parallel and the sliding-window Windowed chain —
// implement it, so a server can host any mix of them behind one registry
// without branching on concrete types. It holds exactly the methods serve
// calls through it:
//
//   - The data plane: ProcessBatch feeds records, Snapshot freezes an
//     immutable query view (windowed engines answer per query instead and
//     return an error here), Estimate answers a trailing-window query
//     (plain engines return an error), WriteCheckpoint serializes the whole
//     state, Close stops the shard goroutines.
//
//   - Telemetry: RegisterMetrics attaches the engine's metric families;
//     Health and Degraded report the shard supervisors (on a Windowed
//     engine, counts span every pane it has run and the degraded flags
//     every pane it retains), and RetiredDeletions the deletion verdicts a
//     scrape may read without a barrier.
//
//   - Capability accessors: DecayLandmark and WindowSpec report which time
//     model the stream runs, with zero values on engines that lack the
//     capability — callers branch on data, never on dynamic type.
type Stream interface {
	// ProcessBatch feeds a batch in stream order. A non-nil error means the
	// batch was (partially) lost: the engine is closed, or a windowed pane
	// rotation failed mid-batch.
	ProcessBatch(edges []graph.Edge) error
	// Snapshot returns an immutable merged sampler of the current state.
	// Windowed engines have no standing snapshot (queries merge panes fresh
	// per call) and return an error.
	Snapshot() (*core.Sampler, error)
	// Estimate answers a trailing-window query of win event-time units
	// (0 means the configured maximum). Plain engines return an error:
	// window queries need the pane chain.
	Estimate(win uint64) (WindowEstimates, error)

	// Arrivals is the position estimates are current to: distinct arrivals
	// on a plain engine, the stream position (records fed, counted once) on
	// a windowed one. Both barrier the live data plane.
	Arrivals() uint64

	// WriteCheckpoint serializes the engine as one GPSC document (container
	// documents for sharded and windowed state) and returns the stream
	// position it covers.
	WriteCheckpoint(w io.Writer, weightName string) (position uint64, err error)
	// Health reports per-shard supervisor health and whether any shard has
	// degraded (lost edges to a lossy recovery).
	Health() (shards []ShardHealth, degraded bool)
	// Degraded reports whether any shard's sampler has diverged from the
	// fault-free run (sticky).
	Degraded() bool
	// RegisterMetrics attaches the engine's metric families to reg, with
	// the given labels on every sample — the hook multi-tenant registries
	// use to distinguish streams within shared families.
	RegisterMetrics(reg *obs.Registry, labels ...obs.Label)

	// DecayLandmark reports the pinned decay landmark; ok is false before
	// pinning, and always on undecayed or windowed engines.
	DecayLandmark() (landmark uint64, ok bool)
	// WindowSpec reports the sliding-window geometry; ok is false on plain
	// engines.
	WindowSpec() (cfg WindowConfig, ok bool)
	// RetiredDeletions sums deletion verdicts over the retired panes
	// without barriering the live pane — the scrape-safe reader. Plain
	// engines report zero (their verdicts live in query snapshots).
	RetiredDeletions() (applied, unsampled uint64)

	// Close drains and stops the shard goroutines. Idempotent.
	Close()
}

// Compile-time proof that both engine shapes satisfy the interface.
var (
	_ Stream = (*Parallel)(nil)
	_ Stream = (*Windowed)(nil)
)

// Estimate on a plain engine fails: trailing-window queries need the pane
// chain a Windowed engine keeps. (Capability accessor counterpart:
// WindowSpec reports ok=false.)
func (p *Parallel) Estimate(win uint64) (WindowEstimates, error) {
	return WindowEstimates{}, errNotWindowed
}

// WindowSpec reports that a plain engine has no sliding-window geometry.
func (p *Parallel) WindowSpec() (WindowConfig, bool) { return WindowConfig{}, false }

// RetiredDeletions reports zero: a plain engine has no retired panes; its
// deletion verdicts are read from merged snapshots (Deletions barriers).
func (p *Parallel) RetiredDeletions() (applied, unsampled uint64) { return 0, 0 }
