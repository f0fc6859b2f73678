// Command gps-serve runs the GPS live sampling service: it ingests an edge
// stream over HTTP and answers triangle/wedge/subgraph queries from
// staleness-bounded snapshots while ingestion continues.
//
// Usage:
//
//	gps-serve -addr :8080 -m 100000 [-weight triangle|uniform|adjacency]
//	          [-shards P] [-max-pending N] [-staleness 250ms] [-seed S]
//	          [-half-life H] [-window W -pane P] [-restore path]
//	          [-streams manifest.json] [-checkpoint-dir dir]
//	          [-checkpoint-every 30s] [-checkpoint-keep 3]
//	          [-pprof addr] [-log-requests]
//
// Multi-tenant streams: the server always hosts a "default" stream shaped
// by the flags above; -streams FILE declares additional named streams at
// boot (a JSON array of specs — name plus optional capacity, weight, seed,
// shards, half_life, window, pane_width; omitted fields inherit the
// flags). Streams can also be created and deleted at runtime via
// POST/DELETE /v1/streams/{name}, and every /v1/* endpoint takes an
// optional ?stream=NAME selector (absent = the default stream). Each
// stream has its own engine, an ingest queue of at most 64 batches, and a
// fair share of -max-pending, so one saturating tenant is rejected alone.
// Persisted checkpoints cover every stream in one file and restore per
// stream.
//
// Temporal sampling: -half-life H enables forward-decay sampling — recent
// edges dominate the reservoir and /v1/estimate reports decayed counts at
// the stream's event horizon. Event times arrive via the GPSB v2 framing
// (gps-gen -timestamps) or a third edge-list column; untimed streams decay
// by stream position, so H is then measured in arrivals.
//
// Sliding windows: -window W keeps a chain of time-partitioned panes so
// /v1/estimate?window=w answers "the trailing w event-time units, exactly"
// for any w <= W; -pane sets the pane granularity (default W — panes bound
// memory, not accuracy, since queries trim to the exact window edge).
// Windowed servers accept turnstile deletions (GPSB v3, or "del u v" text
// records) like any other, and are mutually exclusive with -half-life.
//
// Durability: -checkpoint-dir enables POST /v1/checkpoint and (with
// -checkpoint-every) periodic checkpoints of the whole sampler data plane,
// written atomically and retention-pruned to -checkpoint-keep files.
// -restore boots from a GPSC checkpoint (a file, or a directory whose
// newest checkpoint is used); the restored engine continues bit-identically
// from the persisted stream position, and the checkpoint's capacity,
// weight and shard count override the corresponding flags.
//
// Robustness: -estimate-deadline bounds how long a query waits for a
// snapshot refresh before the previous snapshot is served flagged
// "degraded"; -max-inflight-queries sheds excess concurrent estimates with
// 429 + Retry-After. -grace bounds the shutdown drain, and
// -checkpoint-on-shutdown persists a final checkpoint (after the HTTP
// drain, covering every acknowledged batch) before the process exits.
// -faults/-fault-seed (or the GPS_FAULTS env var) arm the deterministic
// fault-injection registry for chaos drills — never use in production; the
// armed rules are visible as the fault_points field of /v1/stats.
//
// Observability: GET /metrics serves the Prometheus text exposition of the
// whole stack (HTTP, serve pipeline, engine, estimator, checkpoint I/O);
// -log-requests adds one key=value log line per API request carrying the
// response's X-Request-Id. -pprof ADDR serves net/http/pprof plus /metrics
// on a second listener kept separate from the API port (bind it to loopback
// in production). Off by default; the cheap always-on gauges (ring depths,
// ring stalls, shard backlog) are in /metrics and /v1/stats, so profiling
// is only needed for deep dives.
//
// Endpoints:
//
//	POST /v1/ingest             edge batch: binary frames (Content-Type
//	                            application/x-gps-edges) or text "u v" lines;
//	                            503 + Retry-After under backpressure
//	GET  /v1/estimate           triangle/wedge/clustering estimates with 95%
//	                            CIs; ?max_stale=250ms bounds snapshot age;
//	                            ?window=w queries a trailing window (-window)
//	POST /v1/estimate/subgraph  {"edges": [[u,v],...]} → Horvitz-Thompson
//	                            subgraph estimate + variance
//	POST /v1/flush              block until everything enqueued has been
//	                            sampled (read-your-writes sequencing)
//	POST /v1/checkpoint         drain the queue and persist a checkpoint to
//	                            -checkpoint-dir; returns its path and size
//	GET  /v1/checkpoint         stream a checkpoint of the current state
//	                            (host migration without shared disk)
//	GET  /v1/streams            list live streams and their configs
//	POST /v1/streams/{name}     create a named stream (optional JSON spec body)
//	DELETE /v1/streams/{name}   delete a named stream (drains its queue first)
//	GET  /v1/subscribe          server-sent events: one estimate per snapshot
//	                            epoch of the selected stream
//	GET  /v1/stats              every /metrics sample as JSON, plus each
//	                            stream's config and shard health
//	                            (schema_version 3)
//	GET  /metrics               Prometheus text exposition (all layers;
//	                            named streams labeled {stream="name"})
//	GET  /healthz               liveness
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gps/internal/fault"
	"gps/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintf(os.Stderr, "gps-serve: %v\n", err)
		os.Exit(1)
	}
}

// loadStreamManifest reads a -streams boot manifest: a JSON array of stream
// specs, or an object wrapping one under "streams" (the same shape
// GET /v1/streams lists). Every spec must carry a name; its other fields
// inherit the server's flag-derived defaults.
func loadStreamManifest(path string) ([]serve.StreamSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []serve.StreamSpec
	if err := json.Unmarshal(raw, &specs); err != nil {
		var wrapped struct {
			Streams []serve.StreamSpec `json:"streams"`
		}
		if werr := json.Unmarshal(raw, &wrapped); werr != nil {
			return nil, fmt.Errorf("%s: want a JSON array of stream specs or {\"streams\": [...]}: %w", path, err)
		}
		specs = wrapped.Streams
	}
	for i, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("%s: stream %d has no name", path, i)
		}
	}
	return specs, nil
}

// run starts the service and blocks until shutdown is signalled (SIGINT/
// SIGTERM, or stop closing when non-nil). When ready is non-nil it receives
// the bound address once the listener is up — the hook the end-to-end test
// and smoke scripts use to avoid port races.
func run(args []string, errw io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("gps-serve", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		m           = fs.Int("m", 100000, "reservoir capacity")
		weightName  = fs.String("weight", "triangle", "weight function: triangle, uniform, adjacency")
		shards      = fs.Int("shards", 0, "engine shard count (0 = GOMAXPROCS)")
		maxPending  = fs.Int("max-pending", 4<<20, "max decoded edges waiting in the ingest queue before 503")
		staleness   = fs.Duration("staleness", 250*time.Millisecond, "default snapshot staleness bound")
		halfLife    = fs.Float64("half-life", 0, "forward-decay half-life in event-time units (0 disables time-decayed sampling)")
		window      = fs.Uint64("window", 0, "sliding-window width in event-time units (0 disables windowed sampling)")
		pane        = fs.Uint64("pane", 0, "window pane width in event-time units (0 = -window; needs -window)")
		seed        = fs.Uint64("seed", 1, "sampler seed")
		maxBody     = fs.Int64("max-body", 32<<20, "max ingest body bytes")
		restore     = fs.String("restore", "", "boot from a GPSC checkpoint (file, or dir holding *.gpsc)")
		streamsFile = fs.String("streams", "", "JSON manifest of named streams to create at boot (array of specs, or {\"streams\": [...]})")
		ckptDir     = fs.String("checkpoint-dir", "", "directory for POST /v1/checkpoint and periodic checkpoints")
		ckptEvery   = fs.Duration("checkpoint-every", 0, "periodic checkpoint interval (0 disables; needs -checkpoint-dir)")
		ckptKeep    = fs.Int("checkpoint-keep", 3, "checkpoint files kept by retention")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof and /metrics on this address (separate listener; empty disables)")
		logReqs     = fs.Bool("log-requests", false, "log one key=value line per API request (id, route, status, duration)")
		estDeadln   = fs.Duration("estimate-deadline", 0, "serve the previous snapshot (flagged degraded) when a refresh exceeds this (0 waits)")
		maxQueries  = fs.Int("max-inflight-queries", 0, "shed estimate/subgraph queries beyond this concurrency with 429 (0 disables)")
		grace       = fs.Duration("grace", 5*time.Second, "shutdown grace period per listener")
		ckptOnStop  = fs.Bool("checkpoint-on-shutdown", false, "persist a final checkpoint during shutdown (needs -checkpoint-dir)")
		faults      = fs.String("faults", "", "arm fault injection: \"point:kind[:k=v,...][;...]\" (or env GPS_FAULTS; chaos drills only)")
		faultSeed   = fs.Uint64("fault-seed", 1, "seed for probabilistic fault rules")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	}
	if *ckptOnStop && *ckptDir == "" {
		return fmt.Errorf("-checkpoint-on-shutdown requires -checkpoint-dir")
	}
	if *faults == "" {
		*faults = os.Getenv("GPS_FAULTS")
	}
	if *faults != "" {
		rules, err := fault.ParseSpec(*faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		fault.Arm(*faultSeed, rules)
		defer fault.Disarm()
		fmt.Fprintf(errw, "gps-serve: FAULT INJECTION ARMED (%d rules, seed %d) — chaos drill, not a production server\n",
			len(rules), *faultSeed)
	}
	var streams []serve.StreamSpec
	if *streamsFile != "" {
		var err error
		streams, err = loadStreamManifest(*streamsFile)
		if err != nil {
			return fmt.Errorf("-streams: %w", err)
		}
	}
	s, err := serve.NewServer(serve.Config{
		Capacity:           *m,
		WeightName:         *weightName,
		Seed:               *seed,
		Shards:             *shards,
		MaxPendingEdges:    *maxPending,
		MaxBodyBytes:       *maxBody,
		MaxStaleness:       *staleness,
		HalfLife:           *halfLife,
		Window:             *window,
		PaneWidth:          *pane,
		EstimateDeadline:   *estDeadln,
		MaxInflightQueries: *maxQueries,
		Streams:            streams,
		RestoreFrom:        *restore,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CheckpointKeep:     *ckptKeep,
		LogRequests:        *logReqs,
		LogWriter:          errw,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}

	// Profiling stays off the service port and off by default: -pprof binds a
	// second listener with its own mux (DefaultServeMux is never touched), so
	// operators can expose it on loopback only while the API faces the world.
	var ps *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// The scrape endpoint rides the ops listener too, so a Prometheus
		// agent scoped to loopback never needs the public API port.
		pmux.Handle("/metrics", s.MetricsHandler())
		ps = &http.Server{Handler: pmux}
		s.SetPprofAddr(pln.Addr().String())
		fmt.Fprintf(errw, "gps-serve: pprof + /metrics on %s\n", pln.Addr())
		go func() { _ = ps.Serve(pln) }()
	}
	// Report the effective configuration: after a restore it comes from the
	// checkpoint, not from the flags.
	eff := s.EffectiveConfig()
	modeNote := ""
	if eff.HalfLife > 0 {
		modeNote = fmt.Sprintf(" half-life=%g", eff.HalfLife)
	}
	if eff.Window > 0 {
		modeNote = fmt.Sprintf(" window=%d pane=%d", eff.Window, eff.PaneWidth)
	}
	fmt.Fprintf(errw, "gps-serve: listening on %s (m=%d weight=%s shards=%d staleness=%s%s)\n",
		ln.Addr(), eff.Capacity, eff.WeightName, eff.Shards, *staleness, modeNote)
	if path, pos := s.Restored(); path != "" {
		fmt.Fprintf(errw, "gps-serve: restored %s at stream position %d\n", path, pos)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-sigc:
	case <-stop:
	}
	fmt.Fprintf(errw, "gps-serve: shutting down (grace %s per listener)\n", *grace)

	// Drain the API listener first under its own deadline — a slow pprof
	// consumer must not eat the API's grace budget (and vice versa).
	apiCtx, apiCancel := context.WithTimeout(context.Background(), *grace)
	defer apiCancel()
	var errs []error
	if err := hs.Shutdown(apiCtx); err != nil {
		errs = append(errs, fmt.Errorf("api shutdown: %w", err))
		fmt.Fprintf(errw, "gps-serve: api shutdown: %v\n", err)
	}
	// With the listener drained no new batches can arrive; the final
	// checkpoint (queue drained by its flush barrier) covers every batch
	// ever acknowledged with 202.
	if *ckptOnStop {
		ckptCtx, ckptCancel := context.WithTimeout(context.Background(), *grace)
		path, pos, err := s.WriteCheckpointNow(ckptCtx)
		ckptCancel()
		if err != nil {
			errs = append(errs, fmt.Errorf("final checkpoint: %w", err))
			fmt.Fprintf(errw, "gps-serve: final checkpoint: %v\n", err)
		} else {
			fmt.Fprintf(errw, "gps-serve: final checkpoint %s at stream position %d\n", path, pos)
		}
	}
	if ps != nil {
		psCtx, psCancel := context.WithTimeout(context.Background(), *grace)
		err := ps.Shutdown(psCtx)
		psCancel()
		if err != nil {
			errs = append(errs, fmt.Errorf("pprof shutdown: %w", err))
			fmt.Fprintf(errw, "gps-serve: pprof shutdown: %v\n", err)
		}
	}
	return errors.Join(errs...)
}
