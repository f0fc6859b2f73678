// Package serve turns the GPS library into a continuous sampling service:
// a stdlib-only HTTP server that ingests live edge streams and answers
// subgraph queries while the streams are still arriving — the deployment
// scenario of the paper's in-stream estimation (§4), industrialized.
//
// # Architecture
//
//	clients ─► POST /v1/ingest ─► bounded queue ─► ingest goroutine
//	                                                   │ ProcessBatch
//	                                                   ▼
//	                                         engine.Stream (per stream)
//	                                                   │ Snapshot (low pause)
//	                                                   ▼
//	clients ◄─ GET /v1/estimate ◄─ snapshot cache (staleness-bounded)
//
// The server is multi-tenant: a registry of named streams, each with its
// own engine (plain sharded, forward-decayed, or sliding-window), bounded
// ingest queue, snapshot cache and metrics. Every /v1/* endpoint takes an
// optional ?stream= selector; its absence addresses the always-present
// "default" stream, so a single-tenant deployment never sees the registry
// and its wire traffic is identical to the pre-registry releases. Streams
// are created and deleted at runtime via POST/DELETE /v1/streams/{name}
// (or declared at boot via Config.Streams / the gps-serve -streams
// manifest), and GET /v1/subscribe pushes snapshot-epoch estimate updates
// per stream as server-sent events.
//
// Ingestion is asynchronous: handlers parse the request body (binary edge
// frames or plain text), enqueue the batch on the stream's bounded queue
// and return 202; when the queue is full they return 503 — explicit
// backpressure instead of unbounded buffering. The global MaxPendingEdges
// budget is apportioned fair-share across live streams, so one saturating
// tenant is rejected alone instead of starving the rest. A single ingest
// goroutine per stream drains its queue into the sharded sampler,
// preserving arrival order.
//
// Queries never touch the live sampler. They read an immutable snapshot —
// the engine's merged sampler plus its pre-computed
// Algorithm 2 estimates — from a per-stream cache with a configurable
// staleness bound: a snapshot younger than the bound (or than the
// request's max_stale override) is served directly to any number of
// concurrent readers, and a stale one triggers exactly one refresh while
// late arrivals wait for its result. Ingestion stalls only for the
// snapshot's shard-clone, not for merging or estimation.
//
// The stream model matches the paper (§3.1): edges are undirected, unique
// and simplified. Re-arrivals of a currently sampled edge are ignored by
// the samplers; clients are responsible for not replaying evicted edges.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/fault"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/stream"
)

// Config parameterizes a Server.
type Config struct {
	// Capacity is the reservoir size m of the underlying sampler.
	Capacity int
	// WeightName names the sampling weight function: "uniform" (the
	// default when empty), "triangle" or "adjacency". NewServer refuses any
	// other name. The name is what /v1/stats reports and checkpoints
	// record, so a restore resumes with the same weight.
	WeightName string
	// Seed makes the whole service run deterministic for a given ingestion
	// order.
	Seed uint64
	// Shards is the engine shard count; <= 0 means GOMAXPROCS.
	Shards int
	// MaxPendingEdges bounds the total decoded edges waiting in the ingest
	// queues; beyond it ingestion requests are rejected with 503. The budget
	// is shared fair-share across live streams: each stream may hold
	// MaxPendingEdges / streams, so one saturating tenant 503s alone. Each
	// queue also holds at most 64 batches. <= 0 means 4M edges (~32 MiB
	// queued).
	MaxPendingEdges int
	// MaxBodyBytes caps an ingest request body. <= 0 means 32 MiB.
	MaxBodyBytes int64
	// MaxStaleness is the default bound on snapshot age for queries;
	// 0 means every query sees a fresh snapshot. Requests may tighten or
	// relax it per call with ?max_stale=<duration>.
	MaxStaleness time.Duration
	// HalfLife enables forward-decay (time-decayed) sampling with the given
	// exponential half-life in event-time units: recent edges dominate the
	// sample and /v1/estimate targets decayed counts at the stream's event
	// horizon. Ingested edges carry event times via the GPSB v2 framing or
	// a third edge-list column; untimed edges decay by stream position.
	// 0 (the default) disables decay.
	HalfLife float64
	// Window enables sliding-window sampling: the server keeps a chain of
	// time-partitioned panes (a windowed engine) and /v1/estimate answers
	// "the trailing w event-time units, exactly" via ?window=w (w defaults
	// to Window, the queryable maximum). Windowed queries bypass the
	// snapshot cache — each one merges the in-window panes fresh — and
	// /v1/estimate/subgraph is unavailable. Mutually exclusive with
	// HalfLife. 0 (the default) disables windowing.
	Window uint64
	// PaneWidth is the window pane granularity in event-time units; panes
	// only bound retention (queries trim to the exact window edge by stored
	// event time), so coarser panes cost memory, not accuracy. 0 defaults
	// to Window. Only meaningful with Window > 0.
	PaneWidth uint64
	// EstimateDeadline bounds how long an estimate/subgraph query waits for
	// a snapshot refresh. Past the deadline the previous snapshot is served
	// with "degraded": true instead of blocking the caller — graceful
	// degradation under a slow or faulted refresh. 0 (the default) waits
	// indefinitely, preserving strict freshness.
	EstimateDeadline time.Duration
	// MaxInflightQueries bounds concurrently admitted estimate/subgraph
	// queries per stream; beyond it requests are shed with 429 +
	// Retry-After instead of queueing behind the snapshot cache. <= 0
	// disables shedding.
	MaxInflightQueries int

	// Streams declares additional named streams to create at boot — the
	// programmatic form of the gps-serve -streams manifest. Each spec's
	// zero fields inherit the fields above; the "default" stream always
	// exists and is configured by the fields above directly. When a
	// multi-stream checkpoint restore already carries one of these names,
	// the restored state wins and the spec is ignored.
	Streams []StreamSpec

	// RestoreFrom restores the sampler data plane on boot from a GPSC
	// checkpoint: a file path, or a directory whose newest *.gpsc file is
	// used. A single-stream document restores the default stream exactly as
	// before; a multi-stream container restores every stream it names. The
	// checkpoint's capacity, weight and shard count override the fields
	// above — the restored state is only meaningful under the configuration
	// it was taken with. Empty starts fresh.
	RestoreFrom string
	// CheckpointDir is where POST /v1/checkpoint and the periodic
	// checkpointer persist snapshots (atomic rename, retention-pruned).
	// Empty disables persistence; GET /v1/checkpoint still streams
	// checkpoints over HTTP.
	CheckpointDir string
	// CheckpointEvery takes a checkpoint into CheckpointDir on this period;
	// 0 disables periodic checkpoints.
	CheckpointEvery time.Duration
	// CheckpointKeep bounds how many checkpoint files retention keeps in
	// CheckpointDir; <= 0 means 3.
	CheckpointKeep int

	// LogRequests emits one key=value log line per API request (id, route,
	// status, bytes, duration, remote) to LogWriter.
	LogRequests bool
	// LogWriter receives the request log; nil means os.Stderr.
	LogWriter io.Writer
}

// Server is the live sampling service. Construct with NewServer, expose
// via Handler, stop with Close.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// The stream registry. tenants maps name → tenant and is guarded by
	// closeMu together with the closed flag; def is the always-present
	// "default" stream (also in the map). streams mirrors len(tenants) for
	// the lock-free fair-share admission check.
	tenants map[string]*tenant
	def     *tenant
	streams atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup

	// closeMu excludes Close and stream deletion from in-flight enqueue
	// attempts: producers hold the read side across the closed/deleted
	// check + send, so after a writer acquires the write side and flips the
	// flag, nothing new can enter the queue — which lets the ingest
	// goroutines drain their queues on shutdown and guarantees every
	// 202-acknowledged batch reaches its sampler.
	closeMu sync.RWMutex
	closed  atomic.Bool
	start   time.Time

	// Durability state. ckptMu serializes file writes and retention so a
	// manual POST /v1/checkpoint cannot interleave with the periodic
	// checkpointer's rename+prune. Checkpoint files cover every stream, so
	// the counters stay server-level.
	ckptMu             sync.Mutex
	checkpointsWritten atomic.Uint64
	lastCheckpointNS   atomic.Int64 // unix ns of the last persisted checkpoint
	lastCheckpointErr  atomic.Value // string; "" when the last attempt succeeded
	restoredFrom       string       // checkpoint path restored on boot, "" if fresh

	// Observability. reg aggregates every layer's instrument families; the
	// route middleware stamps X-Request-Id from reqPrefix (per-boot) plus
	// reqSeq and, when logw is set, writes the request log.
	reg       *obs.Registry
	reqSeq    atomic.Uint64
	reqPrefix string
	logw      io.Writer
	pprofAddr atomic.Value // string: bound pprof listener address, for /v1/stats
}

// NewServer builds the service: the stream registry (the default stream
// plus any declared or restored named streams), the per-stream ingest
// pipelines and the HTTP routes.
func NewServer(cfg Config) (*Server, error) {
	if cfg.MaxPendingEdges <= 0 {
		cfg.MaxPendingEdges = 4 << 20
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.CheckpointKeep <= 0 {
		cfg.CheckpointKeep = 3
	}
	if err := resolveStream(&cfg); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.CheckpointDir != "" {
		// Fail at boot, not on the first (possibly periodic and therefore
		// silent) checkpoint: a mistyped directory must not yield a server
		// that merely *looks* durable.
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
		// Sweep temporaries stranded by crashes mid-checkpoint; only
		// completed files carry the .gpsc extension, so anything else from
		// the write pipeline is garbage. One server owns a checkpoint dir.
		if entries, err := os.ReadDir(cfg.CheckpointDir); err == nil {
			for _, e := range entries {
				name := e.Name()
				if e.Type().IsRegular() &&
					(strings.HasSuffix(name, ".partial") || strings.Contains(name, ".partial.tmp") ||
						strings.Contains(name, checkpoint.FileExt+".tmp")) {
					os.Remove(filepath.Join(cfg.CheckpointDir, name))
				}
			}
		}
	}
	// Build every boot-time tenant before starting anything, closing the
	// engines already constructed if a later one fails.
	var (
		boot         []*tenant
		restoredFrom string
	)
	fail := func(err error) (*Server, error) {
		for _, t := range boot {
			t.eng.Close()
		}
		return nil, err
	}
	if cfg.RestoreFrom != "" {
		path, err := checkpoint.ResolvePath(cfg.RestoreFrom)
		if err != nil {
			return nil, fmt.Errorf("serve: restore: %w", err)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("serve: restore: %w", err)
		}
		boot, err = restoreStreams(bufio.NewReader(f), cfg)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("serve: restore %s: %w", path, err))
		}
		restoredFrom = path
	} else {
		def, err := newTenant(defaultStream, cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		boot = []*tenant{def}
	}
	names := make(map[string]*tenant, len(boot))
	var def *tenant
	for _, t := range boot {
		names[t.name] = t
		if t.name == defaultStream {
			def = t
		}
	}
	if def == nil {
		return fail(fmt.Errorf("serve: restore %s: multi-stream checkpoint has no %q stream", restoredFrom, defaultStream))
	}
	s := &Server{
		tenants:      make(map[string]*tenant, len(boot)+len(cfg.Streams)),
		done:         make(chan struct{}),
		start:        time.Now(),
		restoredFrom: restoredFrom,
	}
	// EffectiveConfig reflects the default stream (after defaulting, and
	// after a restore overrode capacity, weight and shard count); the
	// server-wide fields are shared with it anyway.
	s.cfg = def.cfg
	s.cfg.Streams = cfg.Streams
	s.cfg.RestoreFrom = cfg.RestoreFrom
	for _, spec := range cfg.Streams {
		if !validStreamName(spec.Name) {
			return fail(fmt.Errorf("serve: bad stream name %q (want 1-64 characters of [A-Za-z0-9._-])", spec.Name))
		}
		if spec.Name == defaultStream {
			return fail(fmt.Errorf("serve: stream %q always exists; configure it with the top-level fields", defaultStream))
		}
		if _, dup := names[spec.Name]; dup {
			// Restored state wins over a manifest re-declaration; a
			// manifest that lists a name twice is a plain mistake.
			if restoredFrom != "" {
				continue
			}
			return fail(fmt.Errorf("serve: stream %q declared twice", spec.Name))
		}
		scfg, err := s.streamConfig(spec)
		if err != nil {
			return fail(fmt.Errorf("serve: %w", err))
		}
		t, err := newTenant(spec.Name, scfg)
		if err != nil {
			return fail(fmt.Errorf("serve: stream %q: %w", spec.Name, err))
		}
		names[spec.Name] = t
		boot = append(boot, t)
	}
	s.lastCheckpointErr.Store("")
	if cfg.LogRequests {
		s.logw = cfg.LogWriter
		if s.logw == nil {
			s.logw = os.Stderr
		}
	}
	s.reqPrefix = fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
	s.reg = obs.NewRegistry()
	s.registerServerMetrics()
	for _, t := range boot {
		s.installTenantLocked(t) // boot is single-threaded: no lock needed yet
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/ingest", s.handleIngest)
	s.route("GET /v1/estimate", s.handleEstimate)
	s.route("POST /v1/estimate/subgraph", s.handleSubgraph)
	s.route("POST /v1/flush", s.handleFlush)
	s.route("POST /v1/checkpoint", s.handleCheckpoint)
	s.route("GET /v1/checkpoint", s.handleCheckpointDownload)
	s.route("GET /v1/stats", s.handleStats)
	s.route("GET /v1/streams", s.handleStreamList)
	s.route("POST /v1/streams/{name}", s.handleStreamCreate)
	s.route("DELETE /v1/streams/{name}", s.handleStreamDelete)
	s.route("GET /v1/subscribe", s.handleSubscribe)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.reg.Handler().ServeHTTP(w, r)
	})
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir != "" {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// Restored reports the checkpoint the server booted from and the stream
// position the default stream carried; an empty path means a fresh start.
func (s *Server) Restored() (path string, position uint64) {
	return s.restoredFrom, s.def.restoredPosition
}

// EffectiveConfig returns the configuration the server actually runs with
// — after defaulting, and after a restore overrode capacity, weight and
// shard count with the checkpoint's values. The engine fields describe the
// default stream; named streams carry their own (see GET /v1/streams).
func (s *Server) EffectiveConfig() Config { return s.cfg }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the ingest pipelines and the underlying samplers of every
// stream. Batches already acknowledged with 202 are processed before
// shutdown completes; in-flight requests racing Close observe 503s. Close
// is idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	if !s.closed.CompareAndSwap(false, true) {
		s.closeMu.Unlock()
		return
	}
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		close(t.queue) // its ingest loop drains what was acknowledged, then exits
		tenants = append(tenants, t)
	}
	s.closeMu.Unlock()
	close(s.done)
	s.wg.Wait()
	for _, t := range tenants {
		t.eng.Close()
	}
}

// pendingEdgeShare is each stream's slice of the global MaxPendingEdges
// budget: the whole budget for a single-tenant server (identical to the
// pre-registry behavior), an equal share otherwise — so a tenant that
// saturates its share is rejected alone instead of starving the rest.
func (s *Server) pendingEdgeShare() int64 {
	n := s.streams.Load()
	if n <= 1 {
		return int64(s.cfg.MaxPendingEdges)
	}
	return int64(s.cfg.MaxPendingEdges) / n
}

// ingestLoop is the single consumer of one stream's ingest queue: it
// preserves arrival order and is the only goroutine feeding that sampler.
// Retiring the stream closes the queue under closeMu's write side, after
// which no producer can send, so the loop processes everything
// acknowledged before it exits.
func (s *Server) ingestLoop(t *tenant) {
	defer s.wg.Done()
	defer close(t.loopDone)
	for edges := range t.queue {
		t.pendingBatches.Add(-1)
		// Recover a panic escaping admission (e.g. an injected ring-publish
		// fault): the batch may be partially applied, but the loop — the
		// only feeder of the sampler — must survive, and a flush waiting
		// on the batch must still see it drained. The stream position
		// advances regardless so it stays an upper bound on arrivals (the
		// snapshot cache's "provably current" check compares for equality,
		// which a dropped batch only makes conservative); the loss itself
		// is visible in ingest_panics.
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.ingestPanics.Add(1)
				}
			}()
			if err := t.eng.ProcessBatch(edges); err != nil {
				// A windowed rotation failure (merge on a faulted pane)
				// loses the batch like a recovered panic would; the loop
				// survives and the loss is visible in ingest_panics.
				t.ingestPanics.Add(1)
			}
		}()
		t.pendingEdges.Add(-int64(len(edges)))
		t.edgesProcessed.Add(uint64(len(edges)))
		t.markDrained()
	}
}

// limitTracker records whether the wrapped MaxBytesReader ever tripped its
// limit. The truncation usually cuts a record in half, so the parser
// reports a parse error before it observes the *http.MaxBytesError itself;
// the tracker lets the handler still answer 413 instead of 400.
type limitTracker struct {
	r       io.Reader
	tripped bool
}

func (t *limitTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		t.tripped = true
	}
	return n, err
}

// parseBody decodes an ingest body: binary edge frames when the content
// type or magic says so, plain-text edge list otherwise. Self-loop records
// are skipped and counted per the shared reader policy (the count feeds
// the ingest response and /v1/stats). tooBig reports that the body
// exceeded MaxBodyBytes (the error is then a truncation artifact, not
// malformed client data).
func (s *Server) parseBody(r *http.Request) (edges []graph.Edge, st stream.ReadStats, tooBig bool, err error) {
	if r.ContentLength > s.cfg.MaxBodyBytes {
		return nil, st, true, fmt.Errorf("serve: body of %d bytes exceeds limit", r.ContentLength)
	}
	body := &limitTracker{r: http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)}
	if r.Header.Get("Content-Type") == stream.BinaryContentType {
		edges, st, err = stream.ReadBinaryStats(body)
	} else {
		edges, st, err = stream.ReadEdgesStats(body)
	}
	return edges, st, body.tripped, err
}

// ingestSequence parses the at-least-once dedup headers: X-GPS-Source names
// the client stream and X-GPS-Seq carries its monotonically increasing batch
// sequence number (>= 1). Absent headers mean fire-and-forget ingest.
func ingestSequence(r *http.Request) (source string, seq uint64, err error) {
	source = r.Header.Get("X-GPS-Source")
	if source == "" {
		return "", 0, nil
	}
	raw := r.Header.Get("X-GPS-Seq")
	if raw == "" {
		return "", 0, errors.New("X-GPS-Source requires an X-GPS-Seq batch sequence number")
	}
	seq, perr := strconv.ParseUint(raw, 10, 64)
	if perr != nil || seq == 0 {
		return "", 0, fmt.Errorf("bad X-GPS-Seq %q (want a positive integer)", raw)
	}
	return source, seq, nil
}

// recordSequence advances the dedup watermark for source to seq. dup reports
// that seq was already acknowledged (the batch must not be re-applied);
// otherwise rollback undoes the advance, for batches that end up rejected —
// the client will retry them with the same sequence number.
func (t *tenant) recordSequence(source string, seq uint64) (dup bool, rollback func()) {
	if source == "" {
		return false, func() {}
	}
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	last, seen := t.seqSeen[source]
	if seen && seq <= last {
		return true, nil
	}
	t.seqSeen[source] = seq
	return false, func() {
		t.seqMu.Lock()
		defer t.seqMu.Unlock()
		if cur, ok := t.seqSeen[source]; ok && cur == seq {
			if seen {
				t.seqSeen[source] = last
			} else {
				delete(t.seqSeen, source)
			}
		}
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	edges, rst, tooBig, err := s.parseBody(r)
	if err != nil {
		if tooBig {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes; split the batch", s.cfg.MaxBodyBytes))
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	source, seq, err := ingestSequence(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	dup, rollbackSeq := t.recordSequence(source, seq)
	if dup {
		// The batch was applied (or at least acknowledged) on a previous
		// attempt whose response the client lost: acknowledge again without
		// re-feeding the sampler — at-least-once delivery, exactly-once
		// application.
		t.duplicateBatches.Add(1)
		writeJSON(w, http.StatusAccepted, map[string]any{"accepted": 0, "duplicate": true})
		return
	}
	if len(edges) == 0 {
		// The body was fully parsed and (vacuously) admitted: its skips
		// count. Rejected or unparseable bodies never reach the counter —
		// it must track skips from accepted stream positions only.
		t.selfLoops.Add(uint64(rst.SelfLoops))
		writeJSON(w, http.StatusAccepted, map[string]any{"accepted": 0, "skipped_self_loops": rst.SelfLoops})
		return
	}
	if t.cfg.HalfLife > 0 {
		if msg := t.decayRangeCheck(edges); msg != "" {
			// Past this span the sampler's boost would overflow float64 and
			// abort the whole process; reject the batch while the error can
			// still be an HTTP response.
			t.met.decayRejects.Inc()
			rollbackSeq()
			httpError(w, http.StatusBadRequest, msg)
			return
		}
	}
	// The read lock pins the open/closed/deleted state across the check +
	// enqueue: once Close (or a stream deletion) holds the write side, no
	// further batch can be admitted, so everything acknowledged below is
	// guaranteed to be drained.
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		rollbackSeq()
		httpError(w, http.StatusServiceUnavailable, "server closed")
		return
	}
	if t.deleted.Load() {
		rollbackSeq()
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown stream %q", t.name))
		return
	}
	// Count the batch before the enqueue attempt (rolling back on
	// rejection): the consumer decrements only after receiving, so stats
	// readers never observe negative pending counts, and the edge bound
	// can't be overshot by concurrent producers racing the check.
	t.pendingBatches.Add(1)
	pending := t.pendingEdges.Add(int64(len(edges)))
	reject := func(msg string) {
		t.pendingBatches.Add(-1)
		t.pendingEdges.Add(-int64(len(edges)))
		t.batchesDropped.Add(1)
		t.shedTotal.Add(1)
		rollbackSeq()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, msg)
	}
	if pending > s.pendingEdgeShare() {
		// Backpressure on queued volume: the batch bound alone would let
		// 64 maximum-size bodies sit decoded in memory.
		reject("ingest queue full (pending edge bound)")
		return
	}
	if !t.enqueue(edges) {
		// Backpressure: the queue is full. Clients should retry with
		// delay; unbounded buffering here would just hide the overload.
		reject("ingest queue full")
		return
	}
	t.edgesAccepted.Add(uint64(len(edges)))
	t.selfLoops.Add(uint64(rst.SelfLoops))
	if dels := countDeletions(edges); dels > 0 {
		t.deletionRecs.Add(dels)
	}
	if fault.Enabled() {
		// Lost-acknowledgement window: the batch is enqueued and its
		// sequence recorded, but the 202 never reaches the client — the
		// same shape as a connection cut after commit. A sequenced client
		// retries and the dedup watermark answers "duplicate" without
		// re-applying the batch.
		if ferr := fault.Hit(fault.IngestAck); ferr != nil {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, ferr.Error())
			return
		}
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted":           len(edges),
		"skipped_self_loops": rst.SelfLoops,
		"queued_batches":     t.pendingBatches.Load(),
	})
}

// countDeletions counts the turnstile deletion records in a parsed batch,
// for the serve-level deletion telemetry (exact regardless of whether each
// record later hits a sampled or an unsampled edge).
func countDeletions(edges []graph.Edge) uint64 {
	var n uint64
	for _, e := range edges {
		if e.Del {
			n++
		}
	}
	return n
}

// maxDecaySpanHalfLives bounds how far past the decay landmark the service
// admits events: the forward-decay boost exp(λ(t−L)) overflows float64 at
// ~1022 half-lives, which would abort the sampler mid-process. Guarding at
// 1000 turns "the server crashed" into a 400 with a margin for batches
// already in flight.
const maxDecaySpanHalfLives = 1000

// decayRangeCheck reports (as a client-facing message, "" = fine) whether a
// parsed batch could push the decayed sampler outside the representable
// span: event times are checked against the pinned landmark (or, before
// the first pin, the batch's own first event time — what the engine will
// pin) in *both* directions, since the boost overflows ~1000 half-lives
// above the landmark and underflows to a zero weight the same distance
// below; untimed edges are checked against the projected engine position
// clock. Mixing timed and untimed edges under decay is rejected outright:
// the engine would stamp the untimed rows with clock positions that are
// incommensurate with the event-time landmark, which is the same crash
// spelled differently. The stream's shape (timed vs untimed) is locked in
// on the first accepted batch.
func (t *tenant) decayRangeCheck(edges []graph.Edge) string {
	limit := uint64(maxDecaySpanHalfLives * t.cfg.HalfLife)
	timed := 0
	var firstTS, minTS, maxTS uint64
	for _, e := range edges {
		if e.TS == 0 {
			continue
		}
		if timed == 0 {
			firstTS, minTS, maxTS = e.TS, e.TS, e.TS
		} else {
			if e.TS < minTS {
				minTS = e.TS
			}
			if e.TS > maxTS {
				maxTS = e.TS
			}
		}
		timed++
	}
	if timed > 0 && timed < len(edges) {
		return "batch mixes event-timed and untimed edges; a decayed stream must carry timestamps on every edge or on none"
	}
	base, haveBase := t.eng.DecayLandmark()
	if timed > 0 {
		if !haveBase {
			base = firstTS // the engine pins the first routed edge's time
		}
		if maxTS > base && maxTS-base > limit {
			return fmt.Sprintf("event time %d is more than %d half-lives past the decay landmark %d; "+
				"restart with a larger -half-life (or a later landmark) to cover this stream",
				maxTS, maxDecaySpanHalfLives, base)
		}
		if base > minTS && base-minTS > limit {
			return fmt.Sprintf("event time %d is more than %d half-lives before the decay landmark %d; "+
				"its weight would underflow to zero — restart with a larger -half-life or an earlier landmark",
				minTS, maxDecaySpanHalfLives, base)
		}
	} else {
		// Untimed edges are stamped from the engine position clock, so the
		// landmark must itself be a clock position (≈1), not an event time
		// from a previously timed stream.
		projected := t.edgesProcessed.Load() + uint64(t.pendingEdges.Load()) + uint64(len(edges))
		if !haveBase {
			base = 1
		}
		if base > projected && base-projected > limit {
			return "untimed edges cannot follow an event-timed decayed stream (their stamped positions " +
				"would sit unrepresentably far below the landmark); keep the stream uniformly timestamped"
		}
		if projected > base && projected-base > limit {
			return fmt.Sprintf("stream position %d exceeds %d half-lives of arrival-order decay; "+
				"restart with a larger -half-life to keep sampling this stream", projected, maxDecaySpanHalfLives)
		}
	}
	// Lock the stream shape on the first batch that passes: a later switch
	// between timed and untimed is rejected before it can reach the sampler.
	mode := int32(2)
	if timed > 0 {
		mode = 1
	}
	if !t.decayMode.CompareAndSwap(0, mode) && t.decayMode.Load() != mode {
		return "stream switched between event-timed and untimed edges; a decayed server samples one shape per run"
	}
	return ""
}

var (
	errServerClosed  = errors.New("server closed")
	errStreamDeleted = errors.New("stream deleted")
)

// flushBarrier blocks until everything enqueued on t before it has reached
// the sampler — the read-your-writes primitive behind /v1/flush and the
// checkpoint handlers (a checkpoint must cover every batch acknowledged
// before it was requested). Under closeMu's read side it only checks that
// the stream is live and reads how many batches have been enqueued; it
// waits for the ingest loop to drain that many holding no lock, so a full
// queue behind a slow sampler delays this flush alone, never a stream
// deletion or creation, Close, or ingest into other streams.
func (s *Server) flushBarrier(ctx context.Context, t *tenant) error {
	s.closeMu.RLock()
	if s.closed.Load() {
		s.closeMu.RUnlock()
		return errServerClosed
	}
	if t.deleted.Load() {
		s.closeMu.RUnlock()
		return errStreamDeleted
	}
	n := t.enqueuedBatches()
	s.closeMu.RUnlock()
	return t.awaitDrained(ctx, n)
}

// flushAll runs the flush barrier on every live stream — the fence the
// all-stream checkpoint writers need. Streams deleted while iterating are
// skipped: their state is gone by design.
func (s *Server) flushAll(ctx context.Context) error {
	for _, t := range s.liveTenants() {
		if err := s.flushBarrier(ctx, t); err != nil {
			if errors.Is(err, errStreamDeleted) {
				continue
			}
			return err
		}
	}
	return nil
}

// handleFlush blocks until everything enqueued on the stream before it has
// reached the sampler, then reports the arrival count. It gives
// deterministic read-your-writes sequencing to tests and loaders.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if err := s.flushBarrier(r.Context(), t); err != nil {
		httpError(w, http.StatusServiceUnavailable, flushErrMsg(err))
		return
	}
	// Drop any pre-flush snapshot so a follow-up estimate at the
	// default staleness bound sees the acknowledged writes.
	t.snaps.invalidate()
	// Arrivals is uniform across engine shapes: distinct arrivals on a
	// plain engine, the stream position (all records, counted once across
	// the pane fan-out) on a windowed one — the fence a loader sequences on.
	writeJSON(w, http.StatusOK, map[string]any{"arrivals": t.eng.Arrivals()})
}

func flushErrMsg(err error) string {
	switch {
	case errors.Is(err, errServerClosed):
		return "server closed"
	case errors.Is(err, errStreamDeleted):
		return "stream deleted"
	}
	return "canceled"
}

// writeEngineCheckpoint serializes the data plane: a single-stream server
// writes its stream's ordinary engine/window document (byte-identical to
// the pre-registry format), a multi-stream server writes the KindMulti
// container covering every stream. Returns the stream position the
// document covers (summed across streams).
func (s *Server) writeEngineCheckpoint(w io.Writer) (position uint64, err error) {
	tenants := s.liveTenants()
	if len(tenants) == 1 {
		t := tenants[0]
		return t.eng.WriteCheckpoint(w, t.cfg.WeightName)
	}
	return writeMultiCheckpoint(w, tenants)
}

// writeCheckpointFile persists one checkpoint into CheckpointDir with
// crash-safe visibility and prunes retention, returning the stream
// position the file covers (reported by the engine atomically with the
// serialized state — concurrent ingest cannot skew it). Callers have
// already drained the ingest queues. The file is first written under a
// position-less temporary name, then renamed to embed the covered
// position, so retention order, lexicographic order and stream order all
// agree.
func (s *Server) writeCheckpointFile() (path string, bytes int64, position uint64, err error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	tmp := filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("inflight-%019d.partial", time.Now().UnixNano()))
	bytes, err = checkpoint.WriteFileAtomic(tmp, func(w io.Writer) error {
		var werr error
		position, werr = s.writeEngineCheckpoint(w)
		return werr
	})
	if err == nil {
		name := fmt.Sprintf("ckpt-%020d-%019d%s", position, time.Now().UnixNano(), checkpoint.FileExt)
		path = filepath.Join(s.cfg.CheckpointDir, name)
		if err = os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
		} else {
			// The 200 response names the final path; the rename must
			// survive power loss too, or the boot sweep would collect the
			// .partial remnant and silently discard an acknowledged
			// checkpoint.
			checkpoint.SyncDir(s.cfg.CheckpointDir)
		}
	}
	if err != nil {
		s.lastCheckpointErr.Store(err.Error())
		return "", 0, 0, err
	}
	// The checkpoint is durable from here on: a retention failure is
	// surfaced through /v1/stats but must not turn an already-persisted
	// checkpoint into a reported failure.
	s.checkpointsWritten.Add(1)
	s.lastCheckpointNS.Store(time.Now().UnixNano())
	if perr := checkpoint.Prune(s.cfg.CheckpointDir, s.cfg.CheckpointKeep); perr != nil {
		s.lastCheckpointErr.Store("retention: " + perr.Error())
	} else {
		s.lastCheckpointErr.Store("")
	}
	return path, bytes, position, nil
}

// WriteCheckpointNow drains the ingest queues and persists one checkpoint
// (covering every stream) into CheckpointDir, returning where it landed —
// the programmatic form of POST /v1/checkpoint. gps-serve calls it for the
// -checkpoint-on-shutdown final checkpoint, after the HTTP listeners have
// drained and before Close.
func (s *Server) WriteCheckpointNow(ctx context.Context) (path string, position uint64, err error) {
	if s.cfg.CheckpointDir == "" {
		return "", 0, errors.New("serve: no checkpoint directory configured")
	}
	if err := s.flushAll(ctx); err != nil {
		return "", 0, err
	}
	path, _, position, err = s.writeCheckpointFile()
	return path, position, err
}

// checkpointLoop is the periodic checkpointer: every CheckpointEvery it
// drains the queues and persists a checkpoint, so a crash loses at most
// one period of ingestion. Failures are surfaced through /v1/stats
// (last_checkpoint_error) and retried on the next tick.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			if err := s.flushAll(context.Background()); err != nil {
				return // only fails when the server is closing
			}
			_, _, _, _ = s.writeCheckpointFile() // error recorded for /v1/stats
		}
	}
}

// handleCheckpoint (POST /v1/checkpoint) drains the ingest queues,
// persists a checkpoint covering every stream into CheckpointDir and
// reports where it landed. Everything acknowledged with 202 before this
// request is covered by the file. Per-stream persistence would tear the
// crash-recovery story (which file wins?), so the stream selector is
// rejected here; GET /v1/checkpoint?stream= exports one stream.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") != "" {
		httpError(w, http.StatusBadRequest,
			"persisted checkpoints cover every stream; drop the stream parameter (GET /v1/checkpoint?stream=... exports one)")
		return
	}
	if s.cfg.CheckpointDir == "" {
		httpError(w, http.StatusBadRequest, "no checkpoint directory configured (start with -checkpoint-dir)")
		return
	}
	start := time.Now()
	if err := s.flushAll(r.Context()); err != nil {
		httpError(w, http.StatusServiceUnavailable, flushErrMsg(err))
		return
	}
	path, n, position, err := s.writeCheckpointFile()
	if err != nil {
		// A persistence failure (disk full, I/O error) is a server-side
		// condition the client can retry, not an opaque 500: the sampler
		// state is intact and the previous checkpoint file is untouched.
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":        path,
		"bytes":       n,
		"position":    position,
		"duration_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// handleCheckpointDownload (GET /v1/checkpoint) streams a checkpoint of
// the current state over HTTP — the migration path: a new host can boot
// from `curl .../v1/checkpoint > state.gpsc` + `-restore state.gpsc`
// without the old host ever touching disk. With ?stream=S only that
// stream is exported, as an ordinary single-stream document a
// single-tenant server can restore directly — the per-stream migration
// path. The trailing checksum lets the receiver verify integrity end to
// end.
func (s *Server) handleCheckpointDownload(w http.ResponseWriter, r *http.Request) {
	single := r.URL.Query().Get("stream") != ""
	var t *tenant
	if single {
		var ok bool
		if t, ok = s.tenantFor(w, r); !ok {
			return
		}
		if err := s.flushBarrier(r.Context(), t); err != nil {
			httpError(w, http.StatusServiceUnavailable, flushErrMsg(err))
			return
		}
	} else if err := s.flushAll(r.Context()); err != nil {
		httpError(w, http.StatusServiceUnavailable, flushErrMsg(err))
		return
	}
	cw := &countingWriter{w: w}
	var err error
	if single {
		_, err = t.eng.WriteCheckpoint(cw, t.cfg.WeightName)
	} else {
		_, err = s.writeEngineCheckpoint(cw)
	}
	if err != nil {
		if cw.n == 0 {
			// Nothing sent yet (headers included): a proper error status is
			// still possible — e.g. the engine closed under a racing
			// shutdown. Without this, curl -f would record an empty 200
			// body as a successful migration.
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		// Mid-stream failure: abort the connection so the client sees a
		// transport error instead of a cleanly-terminated short body (the
		// trailing checksum would also expose it, but only at restore time).
		panic(http.ErrAbortHandler)
	}
}

// countingWriter defers the checkpoint download's Content-Type and implicit
// 200 until the first byte actually flows, so an immediate failure can
// still turn into an error status.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.n == 0 && len(p) > 0 {
		c.w.Header().Set("Content-Type", checkpoint.ContentType)
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// maxStale resolves the effective staleness bound for a request.
func (s *Server) maxStale(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("max_stale")
	if raw == "" {
		return s.cfg.MaxStaleness, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad max_stale %q (want a non-negative Go duration, e.g. 250ms)", raw)
	}
	return d, nil
}

// admitQuery reserves a slot for a snapshot-reading query on one stream.
// When more than MaxInflightQueries are already running, the request is
// shed with 429 + Retry-After instead of queueing behind the snapshot
// cache — bounded latency for the admitted queries, an honest signal for
// the rest. release must be called when the query finishes; ok=false means
// the response has been written.
func (s *Server) admitQuery(w http.ResponseWriter, t *tenant) (release func(), ok bool) {
	if s.cfg.MaxInflightQueries <= 0 {
		return func() {}, true
	}
	if n := t.inflightQueries.Add(1); n > int64(s.cfg.MaxInflightQueries) {
		t.inflightQueries.Add(-1)
		t.shedTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("query load shed (more than %d estimates in flight); retry shortly", s.cfg.MaxInflightQueries))
		return nil, false
	}
	return func() { t.inflightQueries.Add(-1) }, true
}

// estimateResponse is the JSON shape of /v1/estimate. With decay enabled
// the counts target the forward-decayed totals at decay_horizon (the
// stream's largest event time); the decay fields are omitted otherwise.
type estimateResponse struct {
	Triangles      float64    `json:"triangles"`
	TrianglesCI    [2]float64 `json:"triangles_ci95"`
	Wedges         float64    `json:"wedges"`
	WedgesCI       [2]float64 `json:"wedges_ci95"`
	Clustering     float64    `json:"clustering"`
	ClusteringCI   [2]float64 `json:"clustering_ci95"`
	SampledEdges   int        `json:"sampled_edges"`
	Arrivals       uint64     `json:"arrivals"`
	Threshold      float64    `json:"threshold"`
	SnapshotAgeMS  float64    `json:"snapshot_age_ms"`
	SnapshotUnixNS int64      `json:"snapshot_unix_ns"`
	// Degraded marks a best-effort answer: the engine lost edges to a lossy
	// shard recovery, or the refresh missed EstimateDeadline and this is
	// the previous snapshot.
	Degraded      bool    `json:"degraded,omitempty"`
	Decayed       bool    `json:"decayed,omitempty"`
	DecayedEdges  float64 `json:"decayed_edges,omitempty"`
	DecayHorizon  uint64  `json:"decay_horizon,omitempty"`
	DecayHalfLife float64 `json:"decay_half_life,omitempty"`
	// Windowed-mode fields: the effective window width, the event-time
	// horizon it ends at, the Horvitz-Thompson in-window edge count, and
	// how many panes were merged. Omitted on non-windowed servers.
	Window        uint64  `json:"window,omitempty"`
	WindowHorizon uint64  `json:"window_horizon,omitempty"`
	WindowEdges   float64 `json:"window_edges,omitempty"`
	WindowPanes   int     `json:"window_panes,omitempty"`
}

// estimateFrom builds the estimate response for one snapshot — shared by
// the estimate handler and the SSE subscription feed, so both emit the
// same shape for the same epoch.
func (t *tenant) estimateFrom(sn *snapshot, degraded bool) estimateResponse {
	est := sn.est
	tri, wed, cc := est.TriangleInterval(), est.WedgeInterval(), est.ClusteringInterval()
	return estimateResponse{
		Triangles:      est.Triangles,
		TrianglesCI:    [2]float64{tri.Lower, tri.Upper},
		Wedges:         est.Wedges,
		WedgesCI:       [2]float64{wed.Lower, wed.Upper},
		Clustering:     est.GlobalClustering(),
		ClusteringCI:   [2]float64{cc.Lower, cc.Upper},
		SampledEdges:   est.SampledEdges,
		Arrivals:       est.Arrivals,
		Threshold:      sn.sampler.Threshold(),
		SnapshotAgeMS:  float64(time.Since(sn.taken)) / float64(time.Millisecond),
		SnapshotUnixNS: sn.taken.UnixNano(),
		Degraded:       degraded,
		Decayed:        est.Decayed,
		DecayedEdges:   est.DecayedEdges,
		DecayHorizon:   est.DecayHorizon,
		DecayHalfLife:  t.cfg.HalfLife,
	}
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if t.windowed() {
		s.handleWindowEstimate(w, r, t)
		return
	}
	if raw := r.URL.Query().Get("window"); raw != "" {
		httpError(w, http.StatusBadRequest,
			"window queries need a windowed server (start with -window)")
		return
	}
	stale, err := s.maxStale(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	release, ok := s.admitQuery(w, t)
	if !ok {
		return
	}
	defer release()
	snap, staleServed, err := t.snaps.get(stale, s.cfg.EstimateDeadline)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	degraded := staleServed || snap.degraded
	if degraded {
		t.degradedQueries.Add(1)
	}
	t.met.snapAge.Observe(uint64(time.Since(snap.taken)))
	writeJSON(w, http.StatusOK, t.estimateFrom(snap, degraded))
}

// handleWindowEstimate answers /v1/estimate on a windowed stream: it
// merges the panes overlapping the requested trailing window (?window=w in
// event-time units; absent or 0 means the configured maximum) and runs the
// post-stream estimators on the merged sample. There is no snapshot cache
// in this mode — every answer is freshly merged — so max_stale is accepted
// and ignored.
func (s *Server) handleWindowEstimate(w http.ResponseWriter, r *http.Request, t *tenant) {
	var window uint64
	if raw := r.URL.Query().Get("window"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || v == 0 {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("bad window %q (want a positive integer in event-time units)", raw))
			return
		}
		if v > t.cfg.Window {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("window %d exceeds the configured maximum %d (older panes are already retired)", v, t.cfg.Window))
			return
		}
		window = v
	}
	release, ok := s.admitQuery(w, t)
	if !ok {
		return
	}
	defer release()
	taken := time.Now()
	est, err := t.eng.Estimate(window)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if est.Degraded {
		t.degradedQueries.Add(1)
	}
	t.met.snapAge.Observe(uint64(time.Since(taken)))
	tri, wed, cc := est.TriangleInterval(), est.WedgeInterval(), est.ClusteringInterval()
	writeJSON(w, http.StatusOK, estimateResponse{
		Triangles:      est.Triangles,
		TrianglesCI:    [2]float64{tri.Lower, tri.Upper},
		Wedges:         est.Wedges,
		WedgesCI:       [2]float64{wed.Lower, wed.Upper},
		Clustering:     est.GlobalClustering(),
		ClusteringCI:   [2]float64{cc.Lower, cc.Upper},
		SampledEdges:   est.SampledEdges,
		Arrivals:       est.Arrivals,
		Threshold:      est.Threshold,
		SnapshotAgeMS:  float64(time.Since(taken)) / float64(time.Millisecond),
		SnapshotUnixNS: taken.UnixNano(),
		Window:         est.Window,
		WindowHorizon:  est.Horizon,
		WindowEdges:    est.Edges,
		WindowPanes:    est.Panes,
		Degraded:       est.Degraded,
	})
}

// subgraphRequest is the JSON body of /v1/estimate/subgraph: the edge set
// J of the queried subgraph as [u, v] pairs.
type subgraphRequest struct {
	Edges [][2]uint32 `json:"edges"`
}

func (s *Server) handleSubgraph(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if t.windowed() {
		httpError(w, http.StatusBadRequest,
			"subgraph estimation is not available on a windowed server (no standing snapshot to evaluate against)")
		return
	}
	stale, err := s.maxStale(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var req subgraphRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return
	}
	if len(req.Edges) == 0 {
		httpError(w, http.StatusBadRequest, "empty edge set")
		return
	}
	edges := make([]graph.Edge, 0, len(req.Edges))
	for _, p := range req.Edges {
		if p[0] == p[1] {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("self loop at node %d", p[0]))
			return
		}
		edges = append(edges, graph.NewEdge(graph.NodeID(p[0]), graph.NodeID(p[1])))
	}
	release, ok := s.admitQuery(w, t)
	if !ok {
		return
	}
	defer release()
	snap, staleServed, err := t.snaps.get(stale, s.cfg.EstimateDeadline)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	degraded := staleServed || snap.degraded
	if degraded {
		t.degradedQueries.Add(1)
	}
	t.met.snapAge.Observe(uint64(time.Since(snap.taken)))
	est := snap.sampler.SubgraphEstimate(edges...)
	variance := est * (est - 1)
	if est == 0 {
		variance = 0 // est*(est-1) is -0 here; emit canonical 0 in JSON
	}
	resp := map[string]any{
		"estimate":        est,
		"variance":        variance,
		"arrivals":        snap.est.Arrivals,
		"snapshot_age_ms": float64(time.Since(snap.taken)) / float64(time.Millisecond),
	}
	if degraded {
		resp["degraded"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "closed")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}

// WeightByName maps a CLI/config weight name to the function the service
// shards can share, delegating to core.ResolveWeight — the same mapping
// checkpoint restore uses, so every weight the service can run it can also
// restore.
func WeightByName(name string) (core.WeightFunc, error) {
	w, err := core.ResolveWeight(name)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return w, nil
}
