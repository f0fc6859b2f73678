package engine

import (
	"errors"

	"gps/internal/core"
	"gps/internal/obs"
)

// The two capability errors of the Stream interface: asking a plain engine
// for a window query, or a windowed engine for a standing snapshot.
var (
	errNotWindowed        = errors.New("engine: window queries need a windowed engine")
	errNoStandingSnapshot = errors.New("engine: a windowed engine has no standing snapshot (queries merge panes fresh)")
)

// Snapshot fails on a windowed engine: there is no standing merged view —
// Estimate answers fresh per query from the pane chain.
func (w *Windowed) Snapshot() (*core.Sampler, error) { return nil, errNoStandingSnapshot }

// Estimate answers the trailing-window query via Query — the Stream-
// interface name for it.
func (w *Windowed) Estimate(win uint64) (WindowEstimates, error) { return w.Query(win) }

// Arrivals is the windowed stream position: every record fed, counted once
// across the deletion fan-out — the fence flush barriers report. Like a
// plain engine's, it drains the live pane first, so every record it counts
// has reached a shard sampler.
func (w *Windowed) Arrivals() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.active.Arrivals()
	return w.processed
}

// WindowSpec reports the window geometry (ok=true: this engine is windowed).
func (w *Windowed) WindowSpec() (WindowConfig, bool) { return w.Config(), true }

// DecayLandmark reports no landmark (windowed engines never decay).
func (w *Windowed) DecayLandmark() (uint64, bool) { return 0, false }

// Degraded reports whether the live pane or any retained pane lost edges
// to a lossy shard recovery. A pane's flag leaves with the pane when it is
// pruned.
func (w *Windowed) Degraded() bool {
	_, degraded := w.Health()
	return degraded
}

// RingStats reads the live pane's ingest-ring gauges. Rotation replaces the
// live pane, so every call re-fetches it through Engine().
func (w *Windowed) RingStats() RingStats { return w.Engine().RingStats() }

// Health reports each shard's supervisor health across every pane the
// window has run: the live pane's restarts and lost edges plus those of
// the panes rotation retired, pruned ones included. A shard is degraded
// while its live pane's shard or a retained pane's is.
func (w *Windowed) Health() (shards []ShardHealth, degraded bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	shards, _ = w.active.Health()
	for i := range shards {
		h, r := &shards[i], w.retiredHealth[i]
		h.Restarts += r.Restarts
		h.LostEdges += r.LostEdges
		if h.LastPanic == "" {
			h.LastPanic = r.LastPanic
		}
		for _, p := range w.retired {
			h.Degraded = h.Degraded || i < len(p.degraded) && p.degraded[i]
		}
		degraded = degraded || h.Degraded
	}
	return shards, degraded
}

// RegisterMetrics attaches the gps_window_* families: pane rotation
// replaces the live Parallel, so per-instance engine instruments would go
// stale mid-run — the window families cover the chain instead, including
// the window query's stage histograms. The shard supervisor families keep
// their gps_engine_* names and read Health: the counters sum it over the
// shards, so they count across every pane the window has run, and the
// degraded gauge counts the shards it reports degraded, so it agrees with
// shard_health. Health reads the retired panes' totals and the live pane
// under one hold of the window mutex, so a rotation cannot move a count
// between them mid-read. The readers take the window mutex briefly (no
// engine barrier), so scrapes stay cheap. labels (e.g. a stream name) are
// stamped on every sample.
func (w *Windowed) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	wc := w.Config()
	reg.RegisterGaugeFunc("gps_window_width",
		"Queryable window maximum, in event-time units.",
		func() float64 { return float64(wc.Window) }, labels...)
	reg.RegisterGaugeFunc("gps_window_pane_width",
		"Window pane width, in event-time units.",
		func() float64 { return float64(wc.PaneWidth) }, labels...)
	reg.RegisterGaugeFunc("gps_window_panes",
		"Retained panes (retired plus the live one).",
		func() float64 { return float64(w.Panes()) }, labels...)
	reg.RegisterGaugeFunc("gps_window_horizon",
		"Largest event time ingested (the horizon window queries end at).",
		func() float64 { return float64(w.Horizon()) }, labels...)
	total := func(field func(ShardHealth) uint64) func() uint64 {
		return func() uint64 {
			shards, _ := w.Health()
			var n uint64
			for _, h := range shards {
				n += field(h)
			}
			return n
		}
	}
	reg.RegisterCounterFunc("gps_engine_shard_restarts_total", helpShardRestarts,
		total(func(h ShardHealth) uint64 { return h.Restarts }), labels...)
	reg.RegisterCounterFunc("gps_engine_shard_lost_edges_total", helpShardLostEdges,
		total(func(h ShardHealth) uint64 { return h.LostEdges }), labels...)
	reg.RegisterGaugeFunc("gps_engine_shards_degraded", helpShardsDegraded,
		func() float64 { shards, _ := w.Health(); return degradedShards(shards) }, labels...)
	reg.RegisterHistogram("gps_window_query_lock_seconds",
		"Window mutex hold per window query (live-pane snapshot and merge), during which ingest into the stream waits.",
		w.met.lockNS, labels...)
	reg.RegisterHistogram("gps_window_query_merge_seconds",
		"Pane-run builds plus the cut merge per window query.", w.met.mergeNS, labels...)
	reg.RegisterHistogram("gps_window_query_estimate_seconds",
		"Algorithm 2 plus the in-window edge total per window query, after ingest resumes.", w.met.estimateNS, labels...)
}
