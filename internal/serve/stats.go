package serve

import (
	"net/http"
	"time"

	"gps/internal/engine"
	"gps/internal/fault"
)

// StatsV1 is the typed, versioned shape of GET /v1/stats. Field names and
// presence rules are a compatibility contract: every key the endpoint has
// ever emitted keeps its name, and the conditional keys (decay, snapshot
// age, checkpoint health, restore provenance) keep their old
// present-only-when-meaningful semantics via pointers and omitempty.
// The values are read from the same counters and engine accessors the
// /metrics registry renders — the two views never disagree on sources.
//
// Schema version 2 (the multi-tenant registry): every pre-existing
// top-level field keeps describing the default stream exactly as before,
// and the new always-present "streams" array carries one entry per live
// stream — the default one included, so the per-stream shape is uniform.
type StatsV1 struct {
	SchemaVersion int `json:"schema_version"`

	// Snapshot and checkpoint machinery (engine layer).
	Snapshots            uint64  `json:"snapshots"`
	ShardsCloned         uint64  `json:"shards_cloned"`
	ShardsReused         uint64  `json:"shards_reused"`
	Checkpoints          uint64  `json:"checkpoints"`
	CheckpointShardsEnc  uint64  `json:"checkpoint_shards_enc"`
	CheckpointBlobsReuse uint64  `json:"checkpoint_blobs_reuse"`
	CheckpointsWritten   uint64  `json:"checkpoints_written"`
	SnapshotStallMS      float64 `json:"snapshot_stall_ms"`

	// Configuration the server actually runs with.
	Capacity   int    `json:"capacity"`
	Weight     string `json:"weight"`
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`

	// Ingest pipeline.
	PendingBatches   int64  `json:"pending_batches"`
	PendingEdges     int64  `json:"pending_edges"`
	EdgesAccepted    uint64 `json:"edges_accepted"`
	EdgesProcessed   uint64 `json:"edges_processed"`
	BatchesRejected  uint64 `json:"batches_rejected"`
	SelfLoopsSkipped uint64 `json:"self_loops_skipped"`

	// Turnstile deletions. DeletionRecords counts deletion records accepted
	// for ingest (serve-level, exact). The applied/unsampled split needs the
	// samplers' verdicts: on a plain server it is read from the latest query
	// snapshot (0 until one exists); on a windowed server it is summed over
	// the pane chain, where the deletion fan-out counts one record once per
	// retained pane.
	DeletionRecords    uint64 `json:"deletion_records"`
	DeletionsApplied   uint64 `json:"deletions_applied"`
	DeletionsUnsampled uint64 `json:"deletions_unsampled"`

	SnapshotArrivals uint64  `json:"snapshot_arrivals"`
	UptimeMS         float64 `json:"uptime_ms"`

	// Self-healing and degradation: per-shard supervisor health plus the
	// serve-layer overload/degradation counters. Degraded means at least
	// one shard lost edges to a lossy recovery — estimates remain best
	// effort until the next checkpoint restore or restart.
	Degraded         bool                 `json:"degraded"`
	ShardRestarts    uint64               `json:"shard_restarts"`
	LostEdges        uint64               `json:"lost_edges"`
	ShardHealth      []engine.ShardHealth `json:"shard_health"`
	QueriesShed      uint64               `json:"queries_shed"`
	DegradedQueries  uint64               `json:"degraded_queries"`
	DuplicateBatches uint64               `json:"duplicate_batches"`
	IngestPanics     uint64               `json:"ingest_panics"`
	InflightQueries  int64                `json:"inflight_queries"`

	// Ingest data-plane gauges: racy point-in-time reads of the per-shard
	// rings — depths/backlog move while we look, stalls is cumulative.
	RingCapacity int      `json:"ring_capacity"`
	RingDepths   []int    `json:"ring_depths"`
	RingBacklog  int      `json:"ring_backlog"`
	RouterStalls uint64   `json:"router_stalls"`
	ShardEpochs  []uint64 `json:"shard_epochs"`

	// The per-stream section, one entry per live stream (default first,
	// rest sorted by name).
	Streams []StreamStatsV1 `json:"streams"`

	// Conditional: decay configuration (present when decay is on).
	DecayHalfLife float64 `json:"decay_half_life,omitempty"`
	DecayHorizon  *uint64 `json:"decay_horizon,omitempty"`

	// Conditional: sliding-window state (present when windowing is on).
	Window        uint64  `json:"window,omitempty"`
	PaneWidth     uint64  `json:"pane_width,omitempty"`
	WindowPanes   *int    `json:"window_panes,omitempty"`
	WindowHorizon *uint64 `json:"window_horizon,omitempty"`

	// Conditional: present once a snapshot has been taken.
	SnapshotAgeMS *float64 `json:"snapshot_age_ms,omitempty"`

	// Conditional: checkpoint-file health.
	LastCheckpointError string   `json:"last_checkpoint_error,omitempty"`
	LastCheckpointAgeMS *float64 `json:"last_checkpoint_age_ms,omitempty"`

	// Conditional: restore provenance (present when booted from a checkpoint).
	RestoredFrom     string  `json:"restored_from,omitempty"`
	RestoredPosition *uint64 `json:"restored_position,omitempty"`

	// Conditional: bound pprof listener address (present when -pprof is on).
	PprofAddr string `json:"pprof_addr,omitempty"`

	// Conditional: armed fault-injection rules (present only while the
	// process runs with -faults; absent in production).
	FaultPoints []fault.PointStatus `json:"fault_points,omitempty"`
}

// StreamStatsV1 is one live stream's entry in the stats document: its
// effective configuration and its serve-layer counters (the engine-layer
// detail stays on the labeled /metrics families).
type StreamStatsV1 struct {
	Stream     string `json:"stream"`
	Default    bool   `json:"default,omitempty"`
	Capacity   int    `json:"capacity"`
	Weight     string `json:"weight"`
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`

	PendingBatches   int64  `json:"pending_batches"`
	PendingEdges     int64  `json:"pending_edges"`
	EdgesAccepted    uint64 `json:"edges_accepted"`
	EdgesProcessed   uint64 `json:"edges_processed"`
	BatchesRejected  uint64 `json:"batches_rejected"`
	SelfLoopsSkipped uint64 `json:"self_loops_skipped"`
	DeletionRecords  uint64 `json:"deletion_records"`

	QueriesShed      uint64 `json:"queries_shed"`
	DegradedQueries  uint64 `json:"degraded_queries"`
	DuplicateBatches uint64 `json:"duplicate_batches"`
	IngestPanics     uint64 `json:"ingest_panics"`
	InflightQueries  int64  `json:"inflight_queries"`

	// SSE subscription feed: live subscribers and events lost to full
	// subscriber buffers.
	Subscribers     int    `json:"subscribers"`
	SubscriberDrops uint64 `json:"subscriber_drops,omitempty"`

	// Conditional: the stream's time model.
	DecayHalfLife float64 `json:"decay_half_life,omitempty"`
	Window        uint64  `json:"window,omitempty"`
	PaneWidth     uint64  `json:"pane_width,omitempty"`
}

func streamStats(t *tenant) StreamStatsV1 {
	return StreamStatsV1{
		Stream:           t.name,
		Default:          t.name == defaultStream,
		Capacity:         t.cfg.Capacity,
		Weight:           t.cfg.WeightName,
		Shards:           t.cfg.Shards,
		QueueDepth:       t.cfg.QueueDepth,
		PendingBatches:   t.pendingBatches.Load(),
		PendingEdges:     t.pendingEdges.Load(),
		EdgesAccepted:    t.edgesAccepted.Load(),
		EdgesProcessed:   t.edgesProcessed.Load(),
		BatchesRejected:  t.batchesDropped.Load(),
		SelfLoopsSkipped: t.selfLoops.Load(),
		DeletionRecords:  t.deletionRecs.Load(),
		QueriesShed:      t.shedTotal.Load(),
		DegradedQueries:  t.degradedQueries.Load(),
		DuplicateBatches: t.duplicateBatches.Load(),
		IngestPanics:     t.ingestPanics.Load(),
		InflightQueries:  t.inflightQueries.Load(),
		Subscribers:      t.subs.count(),
		SubscriberDrops:  t.subs.dropped.Load(),
		DecayHalfLife:    t.cfg.HalfLife,
		Window:           t.cfg.Window,
		PaneWidth:        t.cfg.PaneWidth,
	}
}

// statsV1 assembles the /v1/stats document. The top-level fields describe
// the default stream (the pre-registry contract, unchanged); the streams
// array carries every live stream.
func (s *Server) statsV1() StatsV1 {
	def := s.def
	snapTaken, snapArrivals := def.snaps.last()
	eng := def.eng // the live pane in windowed mode; re-fetched per call
	snapshots, cloned, reused := eng.SnapshotStats()
	ckpts, encoded, blobReused := eng.CheckpointStats()
	rs := eng.RingStats()
	st := StatsV1{
		SchemaVersion:        2,
		Snapshots:            snapshots,
		ShardsCloned:         cloned,
		ShardsReused:         reused,
		Checkpoints:          ckpts,
		CheckpointShardsEnc:  encoded,
		CheckpointBlobsReuse: blobReused,
		CheckpointsWritten:   s.checkpointsWritten.Load(),
		SnapshotStallMS:      float64(eng.LastSnapshotStall()) / float64(time.Millisecond),
		Capacity:             s.cfg.Capacity,
		Weight:               s.cfg.WeightName,
		Shards:               eng.Shards(),
		QueueDepth:           s.cfg.QueueDepth,
		PendingBatches:       def.pendingBatches.Load(),
		PendingEdges:         def.pendingEdges.Load(),
		EdgesAccepted:        def.edgesAccepted.Load(),
		EdgesProcessed:       def.edgesProcessed.Load(),
		BatchesRejected:      def.batchesDropped.Load(),
		SelfLoopsSkipped:     def.selfLoops.Load(),
		SnapshotArrivals:     snapArrivals,
		UptimeMS:             float64(time.Since(s.start)) / float64(time.Millisecond),
		RingCapacity:         rs.Capacity,
		RingDepths:           rs.Depths,
		RingBacklog:          rs.Backlog,
		RouterStalls:         rs.Stalls,
		ShardEpochs:          rs.Epochs,
		QueriesShed:          def.shedTotal.Load(),
		DegradedQueries:      def.degradedQueries.Load(),
		DuplicateBatches:     def.duplicateBatches.Load(),
		IngestPanics:         def.ingestPanics.Load(),
		InflightQueries:      def.inflightQueries.Load(),
	}
	st.ShardHealth, st.Degraded = eng.Health()
	st.ShardRestarts = eng.Restarts()
	st.LostEdges = eng.LostEdges()
	st.DeletionRecords = def.deletionRecs.Load()
	if wc, windowed := eng.WindowSpec(); windowed {
		st.DeletionsApplied, st.DeletionsUnsampled = eng.Deletions()
		st.Window = wc.Window
		st.PaneWidth = wc.PaneWidth
		panes := eng.Panes()
		st.WindowPanes = &panes
		horizon := eng.Horizon()
		st.WindowHorizon = &horizon
	} else if sn := def.snaps.current(); sn != nil {
		st.DeletionsApplied, st.DeletionsUnsampled = sn.sampler.Deletions()
	}
	tenants := s.liveTenants()
	st.Streams = make([]StreamStatsV1, 0, len(tenants))
	for _, t := range tenants {
		st.Streams = append(st.Streams, streamStats(t))
	}
	if fault.Enabled() {
		// Armed fault-injection points (diagnostics for chaos runs): which
		// rules exist, how often each point was traversed and fired.
		st.FaultPoints = fault.Status()
	}
	if s.cfg.HalfLife > 0 {
		st.DecayHalfLife = s.cfg.HalfLife
		horizon := eng.DecayHorizon() // decay excludes windowing on the default stream
		st.DecayHorizon = &horizon
	}
	if !snapTaken.IsZero() {
		age := float64(time.Since(snapTaken)) / float64(time.Millisecond)
		st.SnapshotAgeMS = &age
	}
	if msg, ok := s.lastCheckpointErr.Load().(string); ok && msg != "" {
		st.LastCheckpointError = msg
	}
	if ns := s.lastCheckpointNS.Load(); ns != 0 {
		age := float64(time.Now().UnixNano()-ns) / float64(time.Millisecond)
		st.LastCheckpointAgeMS = &age
	}
	if s.restoredFrom != "" {
		st.RestoredFrom = s.restoredFrom
		pos := def.restoredPosition
		st.RestoredPosition = &pos
	}
	if addr, ok := s.pprofAddr.Load().(string); ok && addr != "" {
		st.PprofAddr = addr
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsV1())
}

// SetPprofAddr records the bound address of the auxiliary pprof/metrics
// listener so /v1/stats can report it (gps-serve calls it after binding).
func (s *Server) SetPprofAddr(addr string) { s.pprofAddr.Store(addr) }

// metricsPartition classifies every family the registry serves into
// exactly one of two namespaces: statsCovered — the quantity is also
// readable from /v1/stats (same underlying counter or accessor) — and
// metricsOnly — distributions and cache/scheduler detail /v1/stats never
// carried. A test asserts the two lists exactly partition
// Metrics().Families(), so adding a metric forces an explicit
// classification here. Families are registered per capability, so the
// lists union over the live streams' capabilities (a single default plain
// stream yields exactly the pre-registry partition).
func (s *Server) metricsPartition() (statsCovered, metricsOnly []string) {
	statsCovered = []string{
		"gps_checkpoint_files_written_total", // checkpoints_written (per-process superset)
		"gps_core_arrivals_total",            // snapshot_arrivals
		"gps_core_deletions_applied_total",   // deletions_applied
		"gps_core_deletions_unsampled_total", // deletions_unsampled
		"gps_core_reservoir_capacity",        // capacity
		"gps_serve_batches_rejected_total",   // batches_rejected
		"gps_serve_checkpoint_files_total",   // checkpoints_written
		"gps_serve_degraded_queries_total",   // degraded_queries
		"gps_serve_deletion_records_total",   // deletion_records
		"gps_serve_duplicate_batches_total",  // duplicate_batches
		"gps_serve_edges_accepted_total",     // edges_accepted
		"gps_serve_edges_processed_total",    // edges_processed
		"gps_serve_inflight_queries",         // inflight_queries
		"gps_serve_ingest_panics_total",      // ingest_panics
		"gps_serve_queue_batches",            // pending_batches
		"gps_serve_queue_capacity",           // queue_depth
		"gps_serve_queue_edges",              // pending_edges
		"gps_serve_self_loops_total",         // self_loops_skipped
		"gps_serve_shed_total",               // queries_shed
		"gps_serve_uptime_seconds",           // uptime_ms
	}
	metricsOnly = []string{
		"gps_checkpoint_file_bytes",
		"gps_checkpoint_fsync_seconds",
		"gps_core_accepts_total",
		"gps_core_duplicates_total",
		"gps_core_evicts_total",
		"gps_core_reservoir_fill",
		"gps_core_threshold",
		"gps_http_errors_total",
		"gps_http_in_flight",
		"gps_http_request_seconds",
		"gps_http_requests_total",
		"gps_serve_decay_rejected_batches_total",
		"gps_serve_snapshot_age_seconds",
		"gps_serve_snapshot_cache_hits_total",
		"gps_serve_snapshot_deadline_stale_total",
		"gps_serve_snapshot_estimate_reuse_total",
		"gps_serve_snapshot_estimate_seconds",
		"gps_serve_snapshot_forced_fresh_total",
		"gps_serve_snapshot_refresh_total",
	}
	anyWindow, anyPlain, anyDecay := false, false, false
	for _, t := range s.liveTenants() {
		if t.windowed() {
			anyWindow = true
		} else {
			anyPlain = true
		}
		if t.cfg.HalfLife > 0 {
			anyDecay = true
		}
	}
	if anyWindow {
		// Windowed streams register the window families instead of the
		// per-instance engine families: rotation replaces the live engine,
		// so instruments bound to one Parallel would go stale mid-run.
		statsCovered = append(statsCovered,
			"gps_window_width",      // window
			"gps_window_pane_width", // pane_width
			"gps_window_panes",      // window_panes
			"gps_window_horizon",    // window_horizon
		)
		metricsOnly = append(metricsOnly,
			"gps_window_query_estimate_seconds",
			"gps_window_query_lock_seconds",
			"gps_window_query_merge_seconds",
		)
	}
	if anyPlain {
		statsCovered = append(statsCovered,
			"gps_engine_checkpoint_blobs_reused_total",   // checkpoint_blobs_reuse
			"gps_engine_checkpoint_shards_encoded_total", // checkpoint_shards_enc
			"gps_engine_checkpoints_total",               // checkpoints
			"gps_engine_ring_backlog",                    // ring_backlog
			"gps_engine_ring_capacity",                   // ring_capacity
			"gps_engine_ring_depth",                      // ring_depths
			"gps_engine_ring_stalls_total",               // router_stalls
			"gps_engine_shard_epoch",                     // shard_epochs
			"gps_engine_shards",                          // shards
			"gps_engine_snapshot_shards_cloned_total",    // shards_cloned
			"gps_engine_snapshot_shards_reused_total",    // shards_reused
			"gps_engine_snapshots_total",                 // snapshots
			"gps_engine_shard_lost_edges_total",          // lost_edges
			"gps_engine_shard_restarts_total",            // shard_restarts
			"gps_engine_shards_degraded",                 // degraded / shard_health
		)
		metricsOnly = append(metricsOnly,
			"gps_engine_barrier_wait_seconds",
			"gps_engine_checkpoint_encode_bytes",
			"gps_engine_checkpoint_encode_seconds",
			"gps_engine_drain_batch_edges",
			"gps_engine_drain_batch_seconds",
			"gps_engine_ring_parks_total",
			"gps_engine_ring_wakeups_total",
			"gps_engine_snapshot_merge_seconds",
			"gps_engine_snapshot_stall_seconds", // stats has only the last stall, not the distribution
		)
	}
	if anyDecay {
		statsCovered = append(statsCovered, "gps_engine_decay_horizon") // decay_horizon
	}
	return statsCovered, metricsOnly
}
