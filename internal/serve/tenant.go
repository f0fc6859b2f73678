// Tenant construction and restore: the one place in the serving layer that
// names the concrete engine shapes. Everything else in the package programs
// against engine.Stream, so the per-stream capability branches (windowed vs
// plain, decayed vs not) happen on data the interface reports — never on
// dynamic types. A grep-gated test enforces the boundary.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/obs"
)

// defaultStream is the stream every un-parameterized request addresses: a
// single-tenant deployment never has to know the registry exists.
const defaultStream = "default"

// maxCheckpointStreams bounds the stream count a multi-stream checkpoint
// directory may claim, so a forged header cannot drive an unbounded loop.
const maxCheckpointStreams = 1 << 10

// StreamSpec declares one named stream: the per-stream knobs of Config,
// JSON-shaped so the same struct serves the gps-serve -streams manifest and
// the POST /v1/streams/{name} body. Zero fields inherit the server's
// defaults; setting window or half_life replaces the server's time model
// for this stream outright instead of mixing with it.
type StreamSpec struct {
	Name      string  `json:"name"`
	Capacity  int     `json:"capacity,omitempty"`
	Weight    string  `json:"weight,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	HalfLife  float64 `json:"half_life,omitempty"`
	Window    uint64  `json:"window,omitempty"`
	PaneWidth uint64  `json:"pane_width,omitempty"`
}

// queueBatches bounds each stream's ingest queue in batches. Decoded edges
// are bounded by the MaxPendingEdges share; the batch bound only caps how
// many small bodies can wait behind a slow sampler, so it is a constant.
const queueBatches = 64

// tenant is one named stream: its engine, its ingest queue and loop, its
// snapshot cache and SSE hub, and every per-stream counter the handlers and
// telemetry read. (Named tenant, not stream — the package already imports
// gps/internal/stream.) The default tenant carries no metric label, which
// keeps a single-tenant server's /metrics output byte-identical to the
// pre-registry releases; every other tenant's samples are labeled
// {stream="name"} within the same families.
type tenant struct {
	name  string
	label []obs.Label // nil for the default stream
	cfg   Config      // per-stream effective configuration
	eng   engine.Stream
	snaps *snapshotCache
	subs  *subHub

	// queue is closed under closeMu's write side when the stream is retired
	// (deleted, or the server closed); producers check deleted and the
	// server's closed flag under the read side before they send.
	queue    chan ingestItem
	loopDone chan struct{} // closed when the ingest loop has drained and exited
	deleted  atomic.Bool

	edgesAccepted  atomic.Uint64 // edges admitted to the queue
	edgesProcessed atomic.Uint64 // edges handed to the sampler (restored position on boot)
	batchesDropped atomic.Uint64 // ingest requests rejected by backpressure
	selfLoops      atomic.Uint64 // self-loop records skipped by the readers
	deletionRecs   atomic.Uint64 // turnstile deletion records accepted for ingest
	decayMode      atomic.Int32  // 0 undecided, 1 event-timed, 2 untimed (decayed streams only)
	pendingEdges   atomic.Int64
	pendingBatches atomic.Int64

	// At-least-once ingest dedup: the highest sequence number acknowledged
	// per X-GPS-Source, guarded by seqMu. Per stream, so two tenants fed by
	// clients that happen to share a source name cannot dedup each other.
	seqMu   sync.Mutex
	seqSeen map[string]uint64

	// Degradation and overload telemetry.
	inflightQueries  atomic.Int64
	shedTotal        atomic.Uint64 // requests shed by overload protection
	degradedQueries  atomic.Uint64 // estimate responses flagged degraded
	duplicateBatches atomic.Uint64 // ingest batches deduplicated by sequence
	ingestPanics     atomic.Uint64 // panics recovered in the ingest loop

	restoredPosition uint64 // stream position carried by the restoring checkpoint

	met serveMetrics
}

// windowed reports whether the tenant runs the sliding-window time model —
// the capability branch every handler takes instead of a type switch.
func (t *tenant) windowed() bool {
	_, ok := t.eng.WindowSpec()
	return ok
}

// newTenantState wires the per-stream machinery around an engine: the
// bounded queue, the snapshot cache (positioned at the restored stream
// position, so the cache's "provably current" check survives a restart),
// the SSE hub fed by snapshot installs, and the instruments the registry
// attaches later (created here so handlers never race a nil histogram).
func newTenantState(name string, cfg Config, eng engine.Stream, restoredPosition uint64) *tenant {
	t := &tenant{
		name:             name,
		cfg:              cfg,
		eng:              eng,
		subs:             newSubHub(),
		queue:            make(chan ingestItem, queueBatches),
		loopDone:         make(chan struct{}),
		seqSeen:          make(map[string]uint64),
		restoredPosition: restoredPosition,
	}
	if name != defaultStream {
		t.label = []obs.Label{{Key: "stream", Value: name}}
	}
	t.edgesProcessed.Store(restoredPosition)
	t.met.snapAge = obs.NewHistogram(obs.Latency())
	t.met.decayRejects = obs.NewCounter()
	if t.windowed() {
		// Windowed queries merge panes fresh per request; the cache exists
		// only so its metric families and telemetry readers stay uniform.
		t.snaps = newSnapshotCache(func() (*core.Sampler, error) {
			return nil, errors.New("serve: windowed mode has no standing snapshot")
		}, t.edgesProcessed.Load, nil)
	} else {
		t.snaps = newSnapshotCache(eng.Snapshot, t.edgesProcessed.Load, eng.Degraded)
	}
	t.snaps.onInstall = t.subs.broadcast
	return t
}

// resolveStream checks one stream's effective config and fills its
// defaults: the one check behind the default stream (NewServer) and every
// named one (streamConfig). A window and a half-life both reweight time, so
// they exclude each other; a pane width needs a window and defaults to it.
// The engines check their own geometry (a window narrower than its pane).
func resolveStream(cfg *Config) error {
	if cfg.WeightName == "" {
		cfg.WeightName = "uniform"
	}
	if _, err := core.ResolveWeight(cfg.WeightName); err != nil {
		return err
	}
	if cfg.Window == 0 {
		if cfg.PaneWidth != 0 {
			return errors.New("a pane width requires a window")
		}
		return nil
	}
	if cfg.HalfLife > 0 {
		return errors.New("window and half-life are mutually exclusive (both reweight time)")
	}
	if cfg.PaneWidth == 0 {
		cfg.PaneWidth = cfg.Window
	}
	return nil
}

// streamConfig resolves a StreamSpec against the server's defaults into the
// effective per-stream Config.
func (s *Server) streamConfig(spec StreamSpec) (Config, error) {
	cfg := s.cfg
	cfg.Streams = nil
	cfg.RestoreFrom = ""
	if spec.Capacity > 0 {
		cfg.Capacity = spec.Capacity
	}
	if spec.Weight != "" {
		cfg.WeightName = spec.Weight
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Shards > 0 {
		cfg.Shards = spec.Shards
	}
	if spec.Window > 0 || spec.HalfLife > 0 || spec.PaneWidth > 0 {
		// The spec names a time model: it replaces the server's default one
		// wholesale (half-life and window would otherwise leak across).
		cfg.Window, cfg.PaneWidth, cfg.HalfLife = spec.Window, spec.PaneWidth, spec.HalfLife
	}
	if err := resolveStream(&cfg); err != nil {
		return Config{}, fmt.Errorf("stream %q: %w", spec.Name, err)
	}
	return cfg, nil
}

// newTenant constructs a fresh stream from its effective config — the one
// constructor site where the concrete engine shapes are chosen.
func newTenant(name string, cfg Config) (*tenant, error) {
	weight, err := WeightByName(cfg.WeightName)
	if err != nil {
		return nil, err
	}
	var eng engine.Stream
	if cfg.Window > 0 {
		win, err := engine.NewWindowed(engine.WindowConfig{
			Capacity:  cfg.Capacity,
			Weight:    weight,
			Seed:      cfg.Seed,
			Shards:    cfg.Shards,
			PaneWidth: cfg.PaneWidth,
			Window:    cfg.Window,
		})
		if err != nil {
			return nil, err
		}
		eng = win
		cfg.Shards = win.Config().Shards // resolve the <=0 GOMAXPROCS default
	} else {
		par, err := engine.NewParallel(core.Config{
			Capacity: cfg.Capacity,
			Weight:   weight,
			Seed:     cfg.Seed,
			Decay:    core.Decay{HalfLife: cfg.HalfLife},
		}, cfg.Shards)
		if err != nil {
			return nil, err
		}
		eng = par
		cfg.Shards = par.Shards() // resolve the <=0 GOMAXPROCS default
	}
	return newTenantState(name, cfg, eng, 0), nil
}

// restoreStreams restores every stream a checkpoint holds. A KindMulti
// container is a Version3 directory document naming each stream and its
// document kind, followed by the streams' documents back to back. Any other
// document is the default stream alone, read as the kind the server's
// -window implies rather than the kind the file claims, so restoring a
// plain engine document into a -window server fails loudly instead of
// silently changing the time model. Either way the last document must end
// the reader. On failure the streams already restored are returned with
// the error, for the caller to close.
func restoreStreams(br *bufio.Reader, base Config) ([]*tenant, error) {
	hdr, err := br.Peek(6) // "GPSC" + version + kind
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	type streamDoc struct {
		name string
		kind byte
	}
	docs := []streamDoc{{defaultStream, checkpoint.KindEngine}}
	if base.Window > 0 {
		docs[0].kind = checkpoint.KindWindow
	}
	if hdr[5] == checkpoint.KindMulti {
		r := checkpoint.NewReader(br)
		if err := r.ExpectKind(checkpoint.KindMulti); err != nil {
			return nil, err
		}
		n := r.Count("stream", maxCheckpointStreams)
		docs = make([]streamDoc, 0, n)
		seen := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			d := streamDoc{name: r.String(), kind: byte(r.Uvarint())}
			if r.Err() != nil {
				return nil, r.Err()
			}
			if !validStreamName(d.name) {
				return nil, fmt.Errorf("checkpoint: multi-stream directory names invalid stream %q", d.name)
			}
			if seen[d.name] {
				return nil, fmt.Errorf("checkpoint: multi-stream directory lists stream %q twice", d.name)
			}
			seen[d.name] = true
			docs = append(docs, d)
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
	}
	tenants := make([]*tenant, 0, len(docs))
	for _, d := range docs {
		t, err := restoreTenant(br, d.name, d.kind, base)
		if err != nil {
			return tenants, fmt.Errorf("stream %q: %w", d.name, err)
		}
		tenants = append(tenants, t)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return tenants, fmt.Errorf("checkpoint: trailing bytes after %d stream documents", len(tenants))
	}
	return tenants, nil
}

// restoreTenant reads one stream document of the given kind and builds its
// tenant. The document's configuration replaces base's engine fields —
// restored reservoirs are only meaningful under the capacity, weight,
// shards and time model they were taken with — and base supplies the
// server-wide fields every stream shares.
func restoreTenant(br *bufio.Reader, name string, kind byte, base Config) (*tenant, error) {
	cfg := base
	cfg.Streams, cfg.RestoreFrom = nil, ""
	cfg.HalfLife, cfg.Window, cfg.PaneWidth = 0, 0, 0
	var (
		eng      engine.Stream
		position uint64
	)
	switch kind {
	case checkpoint.KindEngine:
		par, weightName, err := engine.ReadParallelDocument(br, WeightByName)
		if err != nil {
			return nil, err
		}
		cfg.Capacity, cfg.Shards, cfg.WeightName = par.Capacity(), par.Shards(), weightName
		cfg.HalfLife = par.Decay().HalfLife
		eng, position = par, par.Processed()
	case checkpoint.KindWindow:
		win, weightName, err := engine.ReadWindowedDocument(br, WeightByName)
		if err != nil {
			return nil, err
		}
		wc := win.Config()
		cfg.Capacity, cfg.Shards, cfg.WeightName = wc.Capacity, wc.Shards, weightName
		cfg.Seed, cfg.Window, cfg.PaneWidth = wc.Seed, wc.Window, wc.PaneWidth
		eng, position = win, win.Processed()
	default:
		return nil, fmt.Errorf("checkpoint: unknown stream document kind %#x", kind)
	}
	return newTenantState(name, cfg, eng, position), nil
}

// writeMultiCheckpoint serializes several streams as one KindMulti
// container: the directory document (names and kinds, CRC-protected on its
// own), then each stream's ordinary checkpoint document back to back. The
// returned position is the sum of the per-stream positions, so checkpoint
// file names still order by total coverage.
func writeMultiCheckpoint(w io.Writer, tenants []*tenant) (position uint64, err error) {
	cw := checkpoint.NewWriterVersion(w, checkpoint.KindMulti, checkpoint.Version3)
	cw.Uvarint(uint64(len(tenants)))
	for _, t := range tenants {
		cw.String(t.name)
		kind := uint64(checkpoint.KindEngine)
		if t.windowed() {
			kind = checkpoint.KindWindow
		}
		cw.Uvarint(kind)
	}
	if err := cw.Finish(); err != nil {
		return 0, err
	}
	for _, t := range tenants {
		pos, err := t.eng.WriteCheckpoint(w, t.cfg.WeightName)
		if err != nil {
			return 0, fmt.Errorf("stream %q: %w", t.name, err)
		}
		position += pos
	}
	return position, nil
}
