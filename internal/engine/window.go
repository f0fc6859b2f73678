package engine

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/randx"
)

// Windowed is the sliding-window layer over the sharded engine: a chain of
// time-partitioned panes, each a GPS sample of the edges whose event times
// fall in one [i·PaneWidth, (i+1)·PaneWidth) interval. The youngest pane is
// live — a full sharded Parallel consuming the stream — while older panes
// are frozen samplers produced by the pane-rotation barrier. A window query
// "the last w time units, exactly" merges the panes overlapping (T−w, T]
// (T the event-time horizon) through the standard priority-sampling merge,
// skipping the edges behind the window edge as it goes, and runs the
// post-stream estimators over the merged sample. Panes that can no longer
// intersect any admissible window are retired for good, bounding memory to
// ~(Window/PaneWidth + 1) reservoirs regardless of stream length.
//
// Rotation reuses the engine's barrier machinery: when an arriving edge's
// event time crosses the active pane's end, the active Parallel is drained
// (every ring empty, every shard quiescent — the same epoch-checked barrier
// Merge and WriteCheckpoint take), merged into a single frozen sampler, and
// closed; a fresh Parallel with a pane-derived seed opens for the new pane.
// The whole run is a deterministic function of (Seed, stream order, Shards):
// pane seeds derive from the root seed and the pane index alone, so a
// crash-restart from a checkpoint replays into bit-identical panes.
//
// Turnstile deletions interact with windowing by design: an insert's pane
// is its event time's, but the matching deletion may arrive panes later, so
// deletion records fan out — applied to every retained frozen pane
// synchronously and fed to the live pane like any record. Deletion is
// deterministic on every pane (no RNG draw, no threshold change), so the
// fan-out preserves determinism.
//
// Windowed methods are safe for concurrent use but coarsely serialized: one
// mutex covers ingest, rotation and a query's snapshot and merge; a query
// runs the estimators on its private merged sample after releasing it. The
// underlying Parallel still fans sampling out across shards; the
// serialization is the routing and the pane bookkeeping. Forward decay and
// windowing are mutually exclusive — both reweight time, in incompatible
// ways.
type Windowed struct {
	mu  sync.Mutex
	cfg WindowConfig

	active    *Parallel
	activeIdx uint64 // pane index of the active pane
	started   bool   // a timed edge has established the pane clock

	// retired panes in ascending pane-index order; each holds the merged,
	// frozen sampler of a completed pane (still receiving deletion fan-out).
	retired []windowPane

	horizon   uint64 // max event time seen (T)
	processed uint64 // records ever fed (the stream position a resume skips)
	closed    bool

	// retiredHealth is each shard's supervisor record over the panes
	// rotation retired, pruned ones included: restarts and lost edges
	// summed, the latest panic message kept. Health adds the live pane's.
	retiredHealth []ShardHealth

	met windowMetrics
}

// windowPane is one completed pane of the chain.
type windowPane struct {
	idx uint64 // pane index: covers [idx·PaneWidth, (idx+1)·PaneWidth)
	s   *core.Sampler
	// run is s's merge run, built by the first query that reads the pane
	// after it retires or is restored, and reused by later ones. The
	// deletion fan-out still removes resident edges from retired panes, so
	// runApplied records s's applied-deletion count at the build, and a
	// query rebuilds the run once that count has moved.
	run        *core.Run
	runApplied uint64
	// degraded records, per shard, that the pane's engine had lost edges to
	// a lossy shard recovery when it retired. It is not checkpointed: a
	// restored pane has none.
	degraded []bool
}

// windowMetrics times each window query's stages. They record
// unconditionally: a query is a cold path.
type windowMetrics struct {
	lockNS     *obs.Histogram // w.mu held: active snapshot, run builds, merge
	mergeNS    *obs.Histogram // run builds plus the k-way merge
	estimateNS *obs.Histogram // Algorithm 2 plus the edge total, off the lock
}

func newWindowMetrics() windowMetrics {
	return windowMetrics{
		lockNS:     obs.NewHistogram(obs.Latency()),
		mergeNS:    obs.NewHistogram(obs.Latency()),
		estimateNS: obs.NewHistogram(obs.Latency()),
	}
}

// WindowConfig parameterizes a Windowed engine.
type WindowConfig struct {
	// Capacity is the reservoir size m of each pane (and of merged query
	// results).
	Capacity int
	// Weight is the sampling weight function shared by every pane; nil means
	// uniform. Stream-independent weights keep pane merges exact (see
	// core.Merge); topology-dependent weights are approximate exactly as
	// they are under sharding.
	Weight core.WeightFunc
	// Seed makes the whole windowed run deterministic; pane seeds derive
	// from it and the pane index.
	Seed uint64
	// Shards is the live pane's Parallel shard count (<= 0 means
	// GOMAXPROCS).
	Shards int
	// PaneWidth is the width of one pane in event-time units (> 0).
	PaneWidth uint64
	// Window is the maximum queryable window in event-time units (> 0);
	// panes are retained while they can intersect (T−Window, T].
	Window uint64
}

func (cfg WindowConfig) validate() error {
	if cfg.Capacity < 1 {
		return errors.New("engine: window Capacity must be at least 1")
	}
	if cfg.PaneWidth == 0 {
		return errors.New("engine: PaneWidth must be positive")
	}
	if cfg.Window == 0 {
		return errors.New("engine: Window must be positive")
	}
	if cfg.Window < cfg.PaneWidth {
		return errors.New("engine: Window must be at least one PaneWidth")
	}
	return nil
}

// NewWindowed returns a windowed engine with an open (empty) first pane.
func NewWindowed(cfg WindowConfig) (*Windowed, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &Windowed{cfg: cfg, met: newWindowMetrics()}
	active, err := w.openPane(0)
	if err != nil {
		return nil, err
	}
	w.active = active
	// Pin the resolved shard count: later panes must match the first, and
	// the checkpoint header records the count a restore validates against.
	w.cfg.Shards = active.Shards()
	w.retiredHealth = make([]ShardHealth, w.cfg.Shards)
	return w, nil
}

// paneSeed derives the deterministic root seed of pane idx: a mix of the
// window seed and the pane index, so a pane's whole sampling run depends
// only on (Seed, idx, stream order) — rotation history does not leak in.
func (w *Windowed) paneSeed(idx uint64) uint64 {
	return randx.Mix64(w.cfg.Seed ^ randx.Mix64(idx+0x9E3779B97F4A7C15))
}

func (w *Windowed) openPane(idx uint64) (*Parallel, error) {
	return NewParallel(core.Config{
		Capacity: w.cfg.Capacity,
		Weight:   w.cfg.Weight,
		Seed:     w.paneSeed(idx),
	}, w.cfg.Shards)
}

// paneIndex returns the pane a timed edge belongs to.
func (w *Windowed) paneIndex(ts uint64) uint64 { return ts / w.cfg.PaneWidth }

// ProcessBatch feeds a batch of turnstile records in stream order. Records
// route to the live pane, which an insert advances first when its event
// time crosses the pane end, so the batch splits only at rotations;
// deletion records also fan out to every retired pane. Untimed records
// (TS 0) ride the live pane without advancing the pane clock. Late
// arrivals — event times behind the live pane — are tolerated: they land in
// the live pane, and because queries trim by stored event time (not by
// pane), they still count toward exactly the windows they belong to.
func (w *Windowed) ProcessBatch(edges []graph.Edge) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("engine: ProcessBatch on closed Windowed")
	}
	start := 0
	for i, e := range edges {
		if e.TS > w.horizon {
			w.horizon = e.TS
		}
		if e.Del {
			// The live pane takes the deletion in its run: grouping keeps
			// each shard's records in stream order, and the shard that owns
			// the edge owns its deletion. Frozen panes apply it now — no
			// inserts race them, so encounter order is stream order.
			for _, p := range w.retired {
				p.s.Process(e)
			}
			continue
		}
		if e.TS != 0 {
			if idx := w.paneIndex(e.TS); !w.started || idx > w.activeIdx {
				w.active.ProcessBatch(edges[start:i])
				start = i
				if err := w.rotateTo(idx); err != nil {
					return err
				}
			}
		}
	}
	w.active.ProcessBatch(edges[start:])
	w.processed += uint64(len(edges))
	return nil
}

// rotateTo closes the active pane and opens pane idx: the pane-rotation
// barrier. The active Parallel is drained and merged (the same admission
// barrier every engine query takes), its frozen sampler joins the retired
// chain, panes that can no longer intersect (T−Window, T] are dropped, and
// a fresh Parallel opens. The first timed edge skips the freeze: it names
// the first real pane, and the provisional pane — holding at most an
// untimed prefix, which belongs wherever the clock starts — is simply
// renamed. Callers hold w.mu.
func (w *Windowed) rotateTo(idx uint64) error {
	if !w.started {
		w.started = true
		w.activeIdx = idx
		return nil
	}
	frozen, err := w.active.Merge()
	if err != nil {
		return fmt.Errorf("engine: pane %d rotation: %w", w.activeIdx, err)
	}
	health, _ := w.active.Health()
	degraded := make([]bool, len(health))
	for i, h := range health {
		r := &w.retiredHealth[i]
		r.Restarts += h.Restarts
		r.LostEdges += h.LostEdges
		if h.LastPanic != "" {
			r.LastPanic = h.LastPanic
		}
		degraded[i] = h.Degraded
	}
	w.active.Close()
	w.retired = append(w.retired, windowPane{idx: w.activeIdx, s: frozen, degraded: degraded})
	w.activeIdx = idx
	w.prune()
	active, err := w.openPane(idx)
	if err != nil {
		return err
	}
	w.active = active
	return nil
}

// prune drops retired panes that cannot intersect (T−Window, T] for the
// current horizon T. Callers hold w.mu.
func (w *Windowed) prune() {
	if w.horizon <= w.cfg.Window {
		return
	}
	cut := w.horizon - w.cfg.Window // keep panes with end > cut
	keep := w.retired[:0]
	for _, p := range w.retired {
		if (p.idx+1)*w.cfg.PaneWidth > cut {
			keep = append(keep, p)
		}
	}
	w.retired = keep
}

// WindowEstimates is the result of a window query: the post-stream motif
// estimates over the merged in-window sample, plus the window geometry and
// the Horvitz-Thompson estimate of the in-window edge count.
type WindowEstimates struct {
	core.Estimates
	// Window is the effective window width queried and Horizon the event
	// time T it ends at: the estimates target edges with TS in (T−W, T]
	// (untimed edges always count).
	Window  uint64
	Horizon uint64
	// Edges is Σ 1/q(k) over the merged in-window sample — the unbiased
	// estimate of the number of in-window edges.
	Edges float64
	// Panes is the number of panes merged to answer the query.
	Panes int
	// Threshold is the merged sample's priority threshold z*.
	Threshold float64
	// Degraded reports that a pane the query merged, the live one
	// included, lost edges to a lossy shard recovery: the answer is
	// best-effort.
	Degraded bool
}

// Query estimates triangle and wedge counts over the trailing window of
// width win event-time units (win == 0 means the configured maximum). It
// merges every retained pane overlapping (T−win, T], skipping the edges
// with stored event times at or before T−win inside the merge, and runs the
// post-stream estimators on the merged sample. Ingestion waits while the
// live pane is snapshotted and the panes are merged; the estimators run on
// the private merged sample after ingestion resumes.
func (w *Windowed) Query(win uint64) (WindowEstimates, error) {
	w.mu.Lock()
	locked := time.Now()
	merged, res, err := w.mergeWindow(win)
	w.mu.Unlock()
	w.met.lockNS.Observe(uint64(time.Since(locked)))
	if err != nil {
		return WindowEstimates{}, err
	}
	start := time.Now()
	res.Estimates = core.EstimatePost(merged)
	res.Edges = core.EstimateEdges(merged)
	w.met.estimateNS.Observe(uint64(time.Since(start)))
	return res, nil
}

// mergeWindow validates a query of width win and merges the in-window
// sample: the runs of the retired panes overlapping (T−win, T], cached
// across queries, and the run of a fresh snapshot of the live pane, merged
// in pane order with the cut T−win. It returns the merged sampler and the
// query's geometry and threshold. Callers hold w.mu: the merge reads the
// retired panes, which the deletion fan-out changes under it.
func (w *Windowed) mergeWindow(win uint64) (*core.Sampler, WindowEstimates, error) {
	if w.closed {
		return nil, WindowEstimates{}, errors.New("engine: Query on closed Windowed")
	}
	if win == 0 {
		win = w.cfg.Window
	}
	if win > w.cfg.Window {
		return nil, WindowEstimates{}, fmt.Errorf("engine: window %d exceeds the configured maximum %d (older panes are already retired)",
			win, w.cfg.Window)
	}
	var cut uint64 // edges with 0 < TS <= cut are out of window
	if w.horizon > win {
		cut = w.horizon - win
	}
	var panes, stale []*windowPane
	degraded := w.active.Degraded()
	for i := range w.retired {
		p := &w.retired[i]
		if (p.idx+1)*w.cfg.PaneWidth <= cut {
			continue // pane entirely out of window
		}
		panes = append(panes, p)
		degraded = degraded || slices.Contains(p.degraded, true)
		if applied, _ := p.s.Deletions(); p.run == nil || applied != p.runApplied {
			stale = append(stale, p)
		}
	}
	activeSnap, err := w.active.Snapshot()
	if err != nil {
		return nil, WindowEstimates{}, err
	}

	start := time.Now()
	build := make([]*core.Sampler, 0, len(stale)+1)
	for _, p := range stale {
		build = append(build, p.s)
	}
	built := core.NewRuns(append(build, activeSnap))
	for i, p := range stale {
		p.run = built[i]
		p.runApplied, _ = p.s.Deletions()
	}
	runs := make([]*core.Run, 0, len(panes)+1)
	for _, p := range panes {
		runs = append(runs, p.run)
	}
	runs = append(runs, built[len(stale)])
	merged, err := core.MergeRuns(runs, core.Config{
		Capacity: w.cfg.Capacity,
		Weight:   w.cfg.Weight,
		Seed:     randx.Mix64(w.cfg.Seed ^ 0xD6E8FEB86659FD93),
	}, cut)
	w.met.mergeNS.Observe(uint64(time.Since(start)))
	if err != nil {
		return nil, WindowEstimates{}, fmt.Errorf("engine: window merge: %w", err)
	}
	return merged, WindowEstimates{
		Window:    win,
		Horizon:   w.horizon,
		Panes:     len(runs),
		Threshold: merged.Threshold(),
		Degraded:  degraded,
	}, nil
}

// Horizon returns the largest event time fed so far (T).
func (w *Windowed) Horizon() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.horizon
}

// Processed returns the stream position: every record ever fed, counted
// once (deletion fan-out does not multiply it). A resume replaying the
// original stream must skip exactly this many records.
func (w *Windowed) Processed() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.processed
}

// Panes returns the number of retained panes (retired plus the live one).
func (w *Windowed) Panes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.retired) + 1
}

// Config returns the window configuration (with Shards resolved).
func (w *Windowed) Config() WindowConfig { return w.cfg }

// Engine returns the live pane's Parallel engine — a point-in-time handle
// for telemetry readers (ring stats, shard health). Rotation replaces the
// live engine, so callers must re-fetch per read rather than hold on to it.
func (w *Windowed) Engine() *Parallel {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.active
}

// Deletions returns the turnstile-deletion counters summed over the live
// pane's shards and every retained frozen pane. Because deletions fan out,
// one stream record can account once per retained pane.
func (w *Windowed) Deletions() (applied, unsampled uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	applied, unsampled = w.active.Deletions()
	for _, p := range w.retired {
		a, u := p.s.Deletions()
		applied += a
		unsampled += u
	}
	return applied, unsampled
}

// RetiredDeletions returns the deletion counters summed over the retired
// panes only. Unlike Deletions it never barriers the live engine — the
// scrape-safe reader: the live pane's verdicts join these sums at its
// rotation.
func (w *Windowed) RetiredDeletions() (applied, unsampled uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range w.retired {
		a, u := p.s.Deletions()
		applied += a
		unsampled += u
	}
	return applied, unsampled
}

// Close drains and stops the live pane's shard goroutines. Further use
// returns errors; Close is idempotent.
func (w *Windowed) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.active.Close()
}

// GPSC window payload (checkpoint.KindWindow, always Version3 — the kind
// was introduced with the turnstile format):
//
//	uvarint  capacity m
//	uvarint  shard count P
//	u64      root seed
//	uvarint  pane width
//	uvarint  window
//	uvarint  processed (stream position)
//	uvarint  horizon T
//	uvarint  started flag (0/1)
//	uvarint  active pane index
//	uvarint  retired pane count R
//	R ×      uvarint pane index (ascending)
//	u32      crc32 of the bytes above
//	R ×      sampler document (complete GPSC KindSampler documents)
//	1 ×      engine document (complete GPSC KindEngine container, the live
//	         pane)
//
// Like the engine container, the header is its own checksummed document and
// every embedded document carries its own checksum, so a restore validates
// structure before trusting any field. One serialized form per state keeps
// checkpoint → restore → checkpoint byte-identical.

// WriteCheckpoint serializes the whole window chain as a GPSC window
// document and returns the stream position it covers. The live pane is
// serialized through the engine's own barrier-and-cache checkpoint path;
// frozen panes serialize directly (they are quiescent by construction).
func (w *Windowed) WriteCheckpoint(out io.Writer, weightName string) (position uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("engine: WriteCheckpoint on closed Windowed")
	}
	cw := checkpoint.NewWriterVersion(out, checkpoint.KindWindow, checkpoint.Version3)
	cw.Uvarint(uint64(w.cfg.Capacity))
	cw.Uvarint(uint64(w.cfg.Shards))
	cw.U64(w.cfg.Seed)
	cw.Uvarint(w.cfg.PaneWidth)
	cw.Uvarint(w.cfg.Window)
	cw.Uvarint(w.processed)
	cw.Uvarint(w.horizon)
	if w.started {
		cw.Uvarint(1)
	} else {
		cw.Uvarint(0)
	}
	cw.Uvarint(w.activeIdx)
	cw.Uvarint(uint64(len(w.retired)))
	for _, p := range w.retired {
		cw.Uvarint(p.idx)
	}
	if err := cw.Finish(); err != nil {
		return 0, err
	}
	for _, p := range w.retired {
		if err := p.s.WriteCheckpoint(out, weightName); err != nil {
			return 0, fmt.Errorf("engine: window pane %d: %w", p.idx, err)
		}
	}
	if _, err := w.active.WriteCheckpoint(out, weightName); err != nil {
		return 0, fmt.Errorf("engine: window live pane: %w", err)
	}
	return w.processed, nil
}

// maxWindowPanes bounds the retired-pane count a forged header can claim.
const maxWindowPanes = 1 << 16

// ReadWindowedCheckpoint restores a window chain from a GPSC window
// document, returning the running engine and the recorded weight name. The
// decoder is as strict as the documents it composes, and additionally
// rejects pane indices out of order or beyond the active pane, geometry
// disagreements between the header and the embedded engine document, and
// trailing bytes.
func ReadWindowedCheckpoint(r io.Reader, resolve func(string) (core.WeightFunc, error)) (*Windowed, string, error) {
	return readWindowedDocument(bufio.NewReader(r), resolve, true)
}

// ReadWindowedDocument reads one window document from br and leaves the
// reader positioned after it, for the KindMulti container which embeds
// window documents back to back. Unlike ReadWindowedCheckpoint it does not
// require EOF after the document.
func ReadWindowedDocument(br *bufio.Reader, resolve func(string) (core.WeightFunc, error)) (*Windowed, string, error) {
	return readWindowedDocument(br, resolve, false)
}

func readWindowedDocument(br *bufio.Reader, resolve func(string) (core.WeightFunc, error), requireEOF bool) (*Windowed, string, error) {
	if resolve == nil {
		resolve = core.ResolveWeight
	}
	cr := checkpoint.NewReader(br)
	if err := cr.ExpectKind(checkpoint.KindWindow); err != nil {
		return nil, "", err
	}
	capacity := cr.Count("capacity", maxEngineCapacity)
	shards := cr.Count("shard count", maxEngineShards)
	seed := cr.U64()
	paneWidth := cr.Uvarint()
	window := cr.Uvarint()
	processed := cr.Uvarint()
	horizon := cr.Uvarint()
	startedFlag := cr.Uvarint()
	activeIdx := cr.Uvarint()
	numRetired := cr.Count("retired pane count", maxWindowPanes)
	indices := make([]uint64, 0, min(numRetired, 1<<10))
	for i := 0; i < numRetired && cr.Err() == nil; i++ {
		indices = append(indices, cr.Uvarint())
	}
	if err := cr.Finish(); err != nil {
		return nil, "", err
	}
	if startedFlag > 1 {
		return nil, "", fmt.Errorf("engine: window checkpoint started flag %d is not boolean", startedFlag)
	}
	started := startedFlag == 1
	cfg := WindowConfig{Capacity: capacity, Seed: seed, Shards: shards, PaneWidth: paneWidth, Window: window}
	if err := cfg.validate(); err != nil {
		return nil, "", err
	}
	for i, idx := range indices {
		if i > 0 && idx <= indices[i-1] {
			return nil, "", fmt.Errorf("engine: window checkpoint pane indices out of order (%d after %d)", idx, indices[i-1])
		}
		if idx >= activeIdx {
			return nil, "", fmt.Errorf("engine: window checkpoint retired pane %d is not older than the active pane %d", idx, activeIdx)
		}
	}

	var (
		weightName string
		retired    []windowPane
	)
	for i, idx := range indices {
		var name string
		wrap := func(n string) (core.WeightFunc, error) {
			name = n
			return resolve(n)
		}
		s, err := core.ReadCheckpoint(br, wrap)
		if err != nil {
			return nil, "", fmt.Errorf("engine: window pane %d: %w", idx, err)
		}
		if i == 0 {
			weightName = name
		} else if name != weightName {
			return nil, "", fmt.Errorf("engine: window pane %d weight %q disagrees with %q", idx, name, weightName)
		}
		retired = append(retired, windowPane{idx: idx, s: s})
	}
	active, engineWeight, err := readParallelDocument(br, resolve, requireEOF)
	if err != nil {
		return nil, "", fmt.Errorf("engine: window live pane: %w", err)
	}
	if len(retired) > 0 && engineWeight != weightName {
		active.Close()
		return nil, "", fmt.Errorf("engine: window live pane weight %q disagrees with retired panes' %q", engineWeight, weightName)
	}
	weightName = engineWeight
	if active.Capacity() != capacity || active.Shards() != shards {
		active.Close()
		return nil, "", fmt.Errorf("engine: window live pane geometry (m=%d P=%d) disagrees with the container (m=%d P=%d)",
			active.Capacity(), active.Shards(), capacity, shards)
	}
	weightFn, _ := resolve(weightName)
	cfg.Weight = weightFn
	w := &Windowed{
		cfg:           cfg,
		active:        active,
		activeIdx:     activeIdx,
		started:       started,
		retired:       retired,
		horizon:       horizon,
		processed:     processed,
		retiredHealth: make([]ShardHealth, shards),
		met:           newWindowMetrics(),
	}
	return w, weightName, nil
}
