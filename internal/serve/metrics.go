package serve

import (
	"fmt"
	"net/http"
	"time"

	"gps/internal/checkpoint"
	"gps/internal/fault"
	"gps/internal/obs"
)

// serveMetrics holds the per-stream serve-layer instruments that are not
// per-route: the snapshot-age-at-serve histogram (how stale the answers
// actually were, as opposed to how stale they were allowed to be) and the
// decay-overflow reject counter. Created with the tenant (so handlers never
// race a nil instrument), attached to the registry when the tenant is
// installed.
type serveMetrics struct {
	snapAge      *obs.Histogram
	decayRejects *obs.Counter
}

// routeMetrics is the per-route instrument set created at registration.
type routeMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	inFlight *obs.Gauge
	latency  *obs.Histogram
}

// Metrics returns the server's metric registry (every layer's families:
// gps_http_*, gps_serve_*, gps_engine_*, gps_core_*, gps_checkpoint_*).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// MetricsHandler returns the GET /metrics handler, for mounting on
// listeners other than the API mux (gps-serve mounts it on the pprof
// listener too).
func (s *Server) MetricsHandler() http.Handler { return s.reg.Handler() }

// route registers pattern on the API mux wrapped in the observability
// middleware: per-route request/error/in-flight counters and a latency
// histogram, an X-Request-Id response header, and (when the server was
// configured with LogRequests) one key=value log line per request. All
// recording happens in a defer, so a handler that panics — including the
// deliberate http.ErrAbortHandler of the checkpoint download — still
// counts; the middleware does not recover.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	label := obs.Label{Key: "route", Value: pattern}
	rm := &routeMetrics{
		requests: s.reg.Counter("gps_http_requests_total", "HTTP requests started, by route.", label),
		errors:   s.reg.Counter("gps_http_errors_total", "HTTP responses with status >= 400, by route.", label),
		inFlight: s.reg.Gauge("gps_http_in_flight", "Requests currently being handled, by route.", label),
		latency: s.reg.Histogram("gps_http_request_seconds",
			"Request handling latency, by route.", obs.Latency(), label),
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%s-%06d", s.reqPrefix, s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		rm.requests.Inc()
		rm.inFlight.Add(1)
		defer func() {
			dur := time.Since(start)
			rm.inFlight.Add(-1)
			rm.latency.Observe(uint64(dur))
			status := sw.status
			if status == 0 {
				status = http.StatusOK // handler wrote nothing: net/http sends 200
			}
			if status >= 400 {
				rm.errors.Inc()
			}
			if s.logw != nil {
				fmt.Fprintf(s.logw, "request id=%s route=%q status=%d bytes=%d dur_ms=%.3f remote=%s\n",
					id, pattern, status, sw.bytes, float64(dur)/float64(time.Millisecond), r.RemoteAddr)
			}
		}()
		if fault.Enabled() {
			// Transient server-failure injection for every route, recorded
			// by the deferred accounting above like any organic failure. An
			// error rule answers 503 + Retry-After (the uniform overload
			// class clients already retry on); a panic rule propagates to
			// net/http, aborting the connection like a handler crash.
			if err := fault.Hit(fault.HTTPRequest); err != nil {
				sw.Header().Set("Retry-After", "1")
				httpError(sw, http.StatusServiceUnavailable, err.Error())
				return
			}
		}
		h(sw, r)
	})
}

// statusWriter captures the response status and body size for the
// middleware's recording and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer so http.ResponseController can reach
// its Flusher/deadline hooks through the middleware wrapper — the SSE
// subscription handler depends on it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// registerServerMetrics attaches the families that are genuinely
// server-wide: the checkpoint file pipeline (one directory, one writer, all
// streams per file) and uptime. Everything per-stream attaches through
// registerTenantMetrics when the tenant is installed.
func (s *Server) registerServerMetrics() {
	checkpoint.RegisterMetrics(s.reg)
	s.reg.RegisterCounterFunc("gps_serve_checkpoint_files_total",
		"Checkpoint files persisted by this server.", s.checkpointsWritten.Load)
	s.reg.RegisterGaugeFunc("gps_serve_last_checkpoint_timestamp_seconds",
		"Unix time of the last persisted checkpoint file (0 before the first).",
		func() float64 { return float64(s.lastCheckpointNS.Load()) / 1e9 })
	s.reg.RegisterGaugeFunc("gps_serve_uptime_seconds", "Seconds since the server booted.",
		func() float64 { return time.Since(s.start).Seconds() })
}

// registerTenantMetrics attaches one stream's samples: the engine layer's
// families, the ingest pipeline, the snapshot cache, and estimator
// self-telemetry read from the cache's current immutable snapshot —
// scraping never touches the live samplers, so it is race-free and never
// stalls ingestion. The default stream's samples carry no label, keeping a
// single-tenant server's /metrics output identical to the pre-registry
// releases; every other stream's samples are {stream="name"} within the
// same families. Deletion removes them via Registry.Unregister on the same
// label.
func (s *Server) registerTenantMetrics(t *tenant) {
	l := t.label
	t.eng.RegisterMetrics(s.reg, l...)

	s.reg.RegisterHistogram("gps_serve_snapshot_age_seconds",
		"Age of the snapshot each estimate/subgraph response was served from.", t.met.snapAge, l...)
	s.reg.RegisterCounter("gps_serve_decay_rejected_batches_total",
		"Ingest batches rejected by the decay overflow range check.", t.met.decayRejects, l...)

	s.reg.RegisterGaugeFunc("gps_serve_queue_edges", "Decoded edges waiting in the ingest queue.",
		func() float64 { return float64(t.pendingEdges.Load()) }, l...)
	s.reg.RegisterGaugeFunc("gps_serve_queue_batches", "Batches waiting in the ingest queue.",
		func() float64 { return float64(t.pendingBatches.Load()) }, l...)
	s.reg.RegisterGaugeFunc("gps_serve_queue_capacity", "Ingest queue batch capacity.",
		func() float64 { return queueBatches }, l...)
	s.reg.RegisterCounterFunc("gps_serve_edges_accepted_total",
		"Edges admitted to the ingest queue (acknowledged with 202).", t.edgesAccepted.Load, l...)
	s.reg.RegisterCounterFunc("gps_serve_edges_processed_total",
		"Edges handed to the sampler (includes the restored position on boot).", t.edgesProcessed.Load, l...)
	s.reg.RegisterCounterFunc("gps_serve_batches_rejected_total",
		"Ingest requests rejected by backpressure (503).", t.batchesDropped.Load, l...)
	s.reg.RegisterCounterFunc("gps_serve_self_loops_total",
		"Self-loop records skipped by the stream readers.", t.selfLoops.Load, l...)
	s.reg.RegisterCounterFunc("gps_serve_deletion_records_total",
		"Turnstile deletion records accepted for ingest.", t.deletionRecs.Load, l...)

	s.reg.RegisterCounter("gps_serve_snapshot_cache_hits_total",
		"Queries served from the cached snapshot without a refresh.", t.snaps.met.hits, l...)
	s.reg.RegisterCounter("gps_serve_snapshot_refresh_total",
		"Snapshot cache refreshes (engine snapshot + estimate).", t.snaps.met.refreshes, l...)
	s.reg.RegisterCounter("gps_serve_snapshot_forced_fresh_total",
		"Queries demanding max_stale=0 (a fresh snapshot).", t.snaps.met.forced, l...)
	s.reg.RegisterCounter("gps_serve_snapshot_estimate_reuse_total",
		"Refreshes that reused the previous snapshot's estimates (only duplicates arrived).", t.snaps.met.estReuse, l...)
	s.reg.RegisterCounter("gps_serve_snapshot_deadline_stale_total",
		"Queries served the previous snapshot because a refresh missed the deadline.", t.snaps.met.staleServe, l...)
	s.reg.RegisterHistogram("gps_serve_snapshot_estimate_seconds",
		"Algorithm 2 (core.EstimatePost) per snapshot refresh that computes estimates; reused estimates are not timed.",
		t.snaps.met.estimate, l...)

	// Degradation and overload protection.
	s.reg.RegisterCounterFunc("gps_serve_shed_total",
		"Requests shed by overload protection (429/503 with Retry-After).", t.shedTotal.Load, l...)
	s.reg.RegisterCounterFunc("gps_serve_degraded_queries_total",
		"Estimate/subgraph responses flagged degraded (lossy recovery or deadline fallback).", t.degradedQueries.Load, l...)
	s.reg.RegisterCounterFunc("gps_serve_duplicate_batches_total",
		"Ingest batches answered from the sequence dedup watermark without re-application.", t.duplicateBatches.Load, l...)
	s.reg.RegisterCounterFunc("gps_serve_ingest_panics_total",
		"Panics recovered by the ingest loop (the batch may be partially applied).", t.ingestPanics.Load, l...)
	s.reg.RegisterGaugeFunc("gps_serve_inflight_queries",
		"Estimate/subgraph queries currently admitted.",
		func() float64 { return float64(t.inflightQueries.Load()) }, l...)

	s.reg.RegisterGaugeFunc("gps_serve_subscribers", "Live GET /v1/subscribe connections.",
		func() float64 { return float64(t.subs.count()) }, l...)
	s.reg.RegisterCounterFunc("gps_serve_subscriber_drops_total",
		"Subscription events lost to full subscriber buffers.", t.subs.dropped.Load, l...)

	// Estimator self-telemetry, read from the current immutable snapshot
	// (zero until the first query takes one). The live shard samplers are
	// never touched: their counters are only safe to read at a barrier.
	snap := func(f func(*snapshot) float64) func() float64 {
		return func() float64 {
			if sn := t.snaps.current(); sn != nil {
				return f(sn)
			}
			return 0
		}
	}
	s.reg.RegisterGaugeFunc("gps_core_reservoir_capacity", "Reservoir capacity m.",
		func() float64 { return float64(t.cfg.Capacity) }, l...)
	s.reg.RegisterGaugeFunc("gps_core_reservoir_fill",
		"Sampled edges |K| in the latest snapshot.",
		snap(func(sn *snapshot) float64 { return float64(sn.est.SampledEdges) }), l...)
	s.reg.RegisterGaugeFunc("gps_core_threshold",
		"Priority threshold z* of the latest snapshot (0 until the reservoir first overflows).",
		snap(func(sn *snapshot) float64 { return sn.sampler.Threshold() }), l...)
	s.reg.RegisterCounterFunc("gps_core_arrivals_total",
		"Distinct edges processed, as of the latest snapshot.",
		func() uint64 {
			if sn := t.snaps.current(); sn != nil {
				return sn.est.Arrivals
			}
			return 0
		}, l...)
	s.reg.RegisterCounterFunc("gps_core_duplicates_total",
		"Duplicate arrivals ignored, as of the latest snapshot.",
		func() uint64 {
			if sn := t.snaps.current(); sn != nil {
				return sn.sampler.Duplicates()
			}
			return 0
		}, l...)
	s.reg.RegisterCounterFunc("gps_core_accepts_total",
		"Arrivals admitted to the reservoir, as of the latest snapshot.",
		func() uint64 {
			if sn := t.snaps.current(); sn != nil {
				return sn.sampler.Accepts()
			}
			return 0
		}, l...)
	s.reg.RegisterCounterFunc("gps_core_evicts_total",
		"Resident edges evicted by later arrivals, as of the latest snapshot.",
		func() uint64 {
			if sn := t.snaps.current(); sn != nil {
				return sn.sampler.Evicts()
			}
			return 0
		}, l...)
	// The applied/unsampled deletion split needs the samplers' verdicts: on
	// a plain stream it reads the latest snapshot; a windowed stream sums
	// its retired panes lock-cheap (the live pane's verdicts join the sums
	// at the next rotation — gps_serve_deletion_records_total is the exact
	// record count in the meantime).
	windowed := t.windowed()
	s.reg.RegisterCounterFunc("gps_core_deletions_applied_total",
		"Turnstile deletions that removed a sampled edge, as of the latest snapshot (windowed: summed over retired panes).",
		func() uint64 {
			if windowed {
				a, _ := t.eng.RetiredDeletions()
				return a
			}
			if sn := t.snaps.current(); sn != nil {
				a, _ := sn.sampler.Deletions()
				return a
			}
			return 0
		}, l...)
	s.reg.RegisterCounterFunc("gps_core_deletions_unsampled_total",
		"Turnstile deletions of unsampled edges (applied vacuously), as of the latest snapshot (windowed: summed over retired panes).",
		func() uint64 {
			if windowed {
				_, u := t.eng.RetiredDeletions()
				return u
			}
			if sn := t.snaps.current(); sn != nil {
				_, u := sn.sampler.Deletions()
				return u
			}
			return 0
		}, l...)
}
