package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/stream"
)

// ingestPlan sizes the ingest workload. The stream is copies of one base
// R-MAT graph with disjoint node-id ranges, so every edge is distinct while
// preparation generates only one graph. Each round restores a fresh server
// from the same checkpoint and posts the same batches, so a round is a
// fixed amount of work and the run reports the median round.
type ingestPlan struct {
	baseScale   int // R-MAT scale of the base graph
	capacity    int // reservoir size m
	batch       int // edges per POST
	warmCopies  int // copies ingested before the checkpoint
	roundCopies int // copies posted in each timed round
	rounds      int
	boots       int // server boots timed for setup_s, rounds included
}

func planIngest(seconds int, traced bool) ingestPlan {
	// gps-serve ingests about 5M uniform edges/s on a 2-core host, so
	// one round of 32 copies (8.4M edges) takes about 1.5 s, boot, flush
	// and gates included about 2 s.
	p := ingestPlan{baseScale: 14, capacity: 100_000, batch: 4096, warmCopies: 2, roundCopies: 32, boots: 15}
	p.rounds = max(3, seconds/2)
	if traced && p.rounds < 4 {
		p.rounds = 4 // a traced run alternates untraced and traced rounds
	}
	return p
}

// estimateView is the part of a /v1/estimate response the gates compare
// bit for bit against a library reference.
type estimateView struct {
	Triangles    float64    `json:"triangles"`
	TrianglesCI  [2]float64 `json:"triangles_ci95"`
	Wedges       float64    `json:"wedges"`
	WedgesCI     [2]float64 `json:"wedges_ci95"`
	Clustering   float64    `json:"clustering"`
	SampledEdges int        `json:"sampled_edges"`
	Arrivals     uint64     `json:"arrivals"`
	Threshold    float64    `json:"threshold"`
	WindowEdges  float64    `json:"window_edges,omitempty"`
	WindowPanes  int        `json:"window_panes,omitempty"`
}

func viewOf(est core.Estimates, threshold float64) estimateView {
	tri, wed := est.TriangleInterval(), est.WedgeInterval()
	return estimateView{
		Triangles:    est.Triangles,
		TrianglesCI:  [2]float64{tri.Lower, tri.Upper},
		Wedges:       est.Wedges,
		WedgesCI:     [2]float64{wed.Lower, wed.Upper},
		Clustering:   est.GlobalClustering(),
		SampledEdges: est.SampledEdges,
		Arrivals:     est.Arrivals,
		Threshold:    threshold,
	}
}

// copyEdges returns copy c of the base graph: node ids shifted by c·span.
func copyEdges(base []graph.Edge, c int, span graph.NodeID) []graph.Edge {
	out := make([]graph.Edge, len(base))
	off := graph.NodeID(c) * span
	for i, e := range base {
		out[i] = graph.NewEdge(e.U+off, e.V+off)
	}
	return out
}

// encodeBatches cuts edges into GPSB batches of size n.
func encodeBatches(edges []graph.Edge, n int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(edges); lo += n {
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf, edges[lo:min(lo+n, len(edges))]); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// ingestRound is what one timed round measured.
type ingestRound struct {
	traced   bool
	rate     float64 // edges/s, first POST to flush response
	queryMS  float64 // the forced-fresh estimate after the flush
	cpu      time.Duration
	peakMiB  float64
	posts    int // POST attempts
	refused  int // 503s, retried
	arrivals uint64
	est      estimateView
	before   scrape
	after    scrape
}

// ingestInputs are the encoded batches of the ingest workload.
type ingestInputs struct {
	warm, batches         [][]byte // the warm prefix and one round
	warmEdges, roundEdges int
	wire                  int // encoded bytes of one round
}

func buildIngestInputs(plan ingestPlan, seed uint64) (*ingestInputs, error) {
	base := gen.RMAT(plan.baseScale, 16, 0.57, 0.19, 0.19, seed)
	span := graph.NodeID(1) << plan.baseScale
	var warm, timed []graph.Edge
	for c := 0; c < plan.warmCopies; c++ {
		warm = append(warm, copyEdges(base, c, span)...)
	}
	for c := plan.warmCopies; c < plan.warmCopies+plan.roundCopies; c++ {
		timed = append(timed, copyEdges(base, c, span)...)
	}
	in := &ingestInputs{warmEdges: len(warm), roundEdges: len(timed)}
	var err error
	if in.warm, err = encodeBatches(warm, plan.batch); err != nil {
		return nil, err
	}
	if in.batches, err = encodeBatches(timed, plan.batch); err != nil {
		return nil, err
	}
	for _, b := range in.batches {
		in.wire += len(b)
	}
	return in, nil
}

func runIngest(o *options) (*outcome, error) { return ingestWith(o, planIngest(o.seconds, o.trace)) }

func ingestWith(o *options, plan ingestPlan) (*outcome, error) {
	in, err := buildIngestInputs(plan, o.seed)
	if err != nil {
		return nil, err
	}
	batches, warmEdges, roundEdges := in.batches, in.warmEdges, in.roundEdges
	ckpt, export, err := prepareIngest(o, plan, in.warm)
	if err != nil {
		return nil, err
	}
	out := newOutcome()

	// Extra boots only feed setup_s; every round boots once more.
	var boots []float64
	for i := plan.rounds; i < plan.boots; i++ {
		srv, err := launchServer(o, "-restore", ckpt)
		if err != nil {
			return nil, err
		}
		boots = append(boots, srv.boot.Seconds())
		srv.shutdown()
	}
	var rounds []*ingestRound
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var queueSamples []float64
	for r := 0; r < plan.rounds; r++ {
		var rtr *tracer
		if o.trace && r%2 == 1 {
			rtr = tr
		}
		srv, err := launchServer(o, "-restore", ckpt)
		if err != nil {
			return nil, err
		}
		boots = append(boots, srv.boot.Seconds())
		rd, qs, err := ingestOneRound(srv, batches, roundEdges, rtr, fmt.Sprintf("round-%d", r))
		srv.shutdown()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		queueSamples = append(queueSamples, qs...)
		rounds = append(rounds, rd)
		out.attempted += int64(rd.posts) + 2 // the POSTs, the flush, the estimate
	}

	// The library reference restores the same per-stream export and is fed
	// the same batches; in a traced run it is also the shadow pipeline
	// whose spans attribute the server's time to stages.
	reg := obs.NewRegistry()
	ref, err := parallelReference(export, batches, tr, reg)
	if err != nil {
		return nil, err
	}
	out.gateErrs = ingestGates(rounds, warmEdges+roundEdges, ref)

	var rates, tracedRates, peaks, queries []float64
	var cpu time.Duration
	posts, refused := 0, 0
	for _, rd := range rounds {
		cpu += rd.cpu
		peaks = append(peaks, rd.peakMiB)
		posts += rd.posts
		refused += rd.refused
		if rd.traced {
			tracedRates = append(tracedRates, rd.rate)
		} else {
			rates = append(rates, rd.rate)
			queries = append(queries, rd.queryMS)
		}
	}
	m := out.metrics
	m["setup_s"] = median(boots)
	m["peak_rss_mb"] = median(peaks)
	m["cpu_s"] = cpu.Seconds()
	m["edges_per_s"] = median(rates)
	m["query_ms"] = median(queries)
	out.diag["round_edges"] = roundEdges
	out.diag["warm_edges"] = warmEdges
	out.diag["rounds"] = len(rounds)
	out.diag["round_rates"] = append(append([]float64(nil), rates...), tracedRates...)
	out.diag["round_query_ms"] = queries
	out.diag["ingest_posts"] = posts
	out.diag["ingest_refused"] = refused
	out.diag["checkpoint_bytes"] = fileSize(ckpt)

	if o.trace {
		spans := tr.snapshot()
		if err := tr.write(o.spans); err != nil {
			return nil, err
		}
		st := ledger(spans)
		var tracedEdges float64
		var traced []*ingestRound
		for _, rd := range rounds {
			if rd.traced {
				traced = append(traced, rd)
				tracedEdges += float64(roundEdges)
			}
		}
		refEdges := float64(roundEdges)
		decode := float64(st["stream.ReadBinaryStats"].Self) / refEdges
		admit := float64(st["engine.Stream.ProcessBatch"].Self) / refEdges
		own := parseRegistry(reg)
		drain := own["gps_engine_drain_batch_seconds_sum"] * 1e9 / refEdges
		request := float64(st["serve.POST /v1/ingest"].Self) / tracedEdges
		flush := float64(st["serve.POST /v1/flush"].Self) / tracedEdges
		drainShare := drain / float64(o.procs)
		var stalls, parks, drainEdges, drainSpans, cloned, reused float64
		for _, rd := range traced {
			stalls += delta(rd.before, rd.after, "gps_engine_ring_stalls_total")
			parks += delta(rd.before, rd.after, "gps_engine_ring_parks_total")
			drainEdges += delta(rd.before, rd.after, "gps_engine_drain_batch_edges_sum")
			drainSpans += delta(rd.before, rd.after, "gps_engine_drain_batch_edges_count")
			cloned += delta(rd.before, rd.after, "gps_engine_snapshot_shards_cloned_total")
			reused += delta(rd.before, rd.after, "gps_engine_snapshot_shards_reused_total")
		}
		restore := ref.restoreMS
		m["query_p95_ms"] = quantile(queries, 0.95)
		m["stream.decode_ns_per_edge"] = decode
		m["stream.wire_bytes_per_edge"] = float64(in.wire) / refEdges
		m["serve.ingest_request_p50_ms"] = quantile(durations(spans, "serve.POST /v1/ingest"), 0.50)
		m["serve.ingest_request_p99_ms"] = quantile(durations(spans, "serve.POST /v1/ingest"), 0.99)
		m["serve.ingest_posts"] = float64(posts) / float64(len(rounds))
		m["serve.ingest_refused"] = float64(refused)
		m["serve.ingest_refused_ratio"] = float64(refused) / float64(posts)
		m["serve.flush_ms"] = median(durations(spans, "serve.POST /v1/flush"))
		m["serve.queue_batches_p50"] = median(queueSamples)
		perBatch := float64(plan.batch) / 1e3 // ns/edge → µs/batch
		m["serve.self_us_per_batch"] = (request - decode - admit - drainShare) * perBatch
		m["serve.boot_ms"] = m["setup_s"]*1e3 - restore
		m["engine.admit_ns_per_edge"] = admit
		m["engine.drain_batch_edges_mean"] = drainEdges / drainSpans
		m["engine.ring_stalls"] = stalls / float64(len(traced))
		m["engine.ring_parks"] = parks / float64(len(traced))
		m["engine.snapshot_clone_ratio"] = cloned / (cloned + reused)
		m["engine.window_panes_per_query"] = 0 // no windowed stream
		m["core.process_ns_per_edge"] = drain
		m["core.estimate_post_ms_p50"] = ref.estimateMS
		m["core.accept_ratio"] = ref.acceptRatio
		m["checkpoint.restore_ms"] = restore
		m["checkpoint.bytes"] = float64(fileSize(ckpt))
		// Ledger per round: the request path (decode, admit, the drain
		// share and serve's own time) plus the flush, against the
		// untraced round.
		perRound := refEdges / 1e6 // ns/edge → ms per round
		stageSum := (request + flush) * perRound
		out.diag["ledger_ns_per_edge"] = map[string]float64{
			"stream.decode": decode, "engine.admit": admit, "engine.drain_share": drainShare,
			"serve.self": request - decode - admit - drainShare, "serve.flush": flush,
		}
		m["ledger.e2e_ms_per_op"] = 1e9 / median(rates) * perRound
		m["ledger.stage_sum_ms_per_op"] = stageSum
		m["ledger.residual_ms_per_op"] = m["ledger.e2e_ms_per_op"] - stageSum
		m["ledger.trace_overhead_ratio"] = median(rates)/median(tracedRates) - 1
		out.diag["stages"] = st
	}
	return out, nil
}

// ingestGates checks every round: the flush reports one arrival per
// distinct edge sent, and the forced-fresh estimate equals the library
// reference bit for bit, which also proves the restore continued exactly.
func ingestGates(rounds []*ingestRound, sent int, ref *reference) []string {
	var errs []string
	for i, rd := range rounds {
		if rd.arrivals != uint64(sent) {
			errs = append(errs, fmt.Sprintf("round %d: flush reported %d arrivals, %d distinct edges were sent", i, rd.arrivals, sent))
		}
		if rd.est != ref.view {
			errs = append(errs, fmt.Sprintf("round %d: forced-fresh estimate %+v differs from the engine.Parallel reference %+v",
				i, rd.est, ref.view))
		}
	}
	return errs
}

// prepareIngest boots a fresh server, ingests the warm prefix, persists a
// checkpoint and exports the stream, then stops the server. It returns the
// checkpoint path and the per-stream export.
func prepareIngest(o *options, plan ingestPlan, warm [][]byte) (ckpt string, export []byte, err error) {
	dir := filepath.Join(o.workDir, "ckpt")
	srv, err := launchServer(o, "-m", strconv.Itoa(plan.capacity), "-weight", "uniform",
		"-seed", strconv.FormatUint(o.seed, 10), "-checkpoint-dir", dir)
	if err != nil {
		return "", nil, err
	}
	defer srv.shutdown()
	c := newConn(srv.base)
	defer c.close()
	for _, b := range warm {
		if _, _, err := postBatch(c, "/v1/ingest", b, nil, 0, "", nil); err != nil {
			return "", nil, err
		}
	}
	ckpt, exports, err := checkpointServer(c, o.workDir, "default")
	return ckpt, exports["default"], err
}

// checkpointServer persists a checkpoint of every stream and exports each
// named stream, returning the checkpoint path and the exports by name.
func checkpointServer(c *conn, dir string, streams ...string) (string, map[string][]byte, error) {
	body, err := c.mustOK(http.MethodPost, "/v1/checkpoint")
	if err != nil {
		return "", nil, err
	}
	var ck struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(body, &ck); err != nil {
		return "", nil, fmt.Errorf("checkpoint response: %w", err)
	}
	exports := map[string][]byte{}
	for _, name := range streams {
		body, err := c.mustOK(http.MethodGet, "/v1/checkpoint?stream="+name)
		if err != nil {
			return "", nil, err
		}
		export := append([]byte(nil), body...)
		if err := os.WriteFile(filepath.Join(dir, "export-"+name+".gpsc"), export, 0o644); err != nil {
			return "", nil, err
		}
		exports[name] = export
	}
	return ck.Path, exports, nil
}

// postBatch posts one batch, retrying a 503 after a short fixed pause, and
// returns the attempts and refusals. A traced call records one span per
// attempt and, from each 202, the queue depth the server reported.
func postBatch(c *conn, path string, b []byte, tr *tracer, parent int, req string, queue *[]float64) (attempts, refused int, err error) {
	for {
		attempts++
		id := tr.begin("serve.POST /v1/ingest", parent, req)
		status, body, err := c.post(path, stream.BinaryContentType, b)
		tr.end(id, 0)
		if err != nil {
			return attempts, refused, fmt.Errorf("POST %s: %w", path, err)
		}
		switch status {
		case http.StatusAccepted:
			if queue != nil {
				var ack struct {
					Queued float64 `json:"queued_batches"`
				}
				if json.Unmarshal(body, &ack) == nil {
					*queue = append(*queue, ack.Queued)
				}
			}
			return attempts, refused, nil
		case http.StatusServiceUnavailable:
			refused++
			time.Sleep(time.Millisecond)
		default:
			return attempts, refused, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(body))
		}
	}
}

// ingestOneRound posts every batch back to back on one connection, then
// flushes: the timed phase. It then reads the server's CPU and peak RSS and
// takes, and times, the forced-fresh estimate the gate compares.
func ingestOneRound(srv *server, batches [][]byte, edges int, tr *tracer, req string) (*ingestRound, []float64, error) {
	c := newConn(srv.base)
	defer c.close()
	rd := &ingestRound{traced: tr != nil}
	var err error
	if rd.before, err = c.metrics(); err != nil {
		return nil, nil, err
	}
	runtime.GC() // the generator collects its garbage before, not during, the timed phase
	cpu0, _, err := srv.usage()
	if err != nil {
		return nil, nil, err
	}
	var queue []float64
	var queueSamples *[]float64
	if tr != nil {
		queueSamples = &queue
	}
	root := tr.begin("ingest.round", 0, req)
	start := time.Now()
	for i, b := range batches {
		a, r, err := postBatch(c, "/v1/ingest", b, tr, root, req+"/batch-"+strconv.Itoa(i), queueSamples)
		rd.posts += a
		rd.refused += r
		if err != nil {
			return nil, nil, err
		}
	}
	id := tr.begin("serve.POST /v1/flush", root, req)
	body, err := c.mustOK(http.MethodPost, "/v1/flush")
	tr.end(id, 0)
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	tr.end(root, 0)
	cpu1, peak, err := srv.usage()
	if err != nil {
		return nil, nil, err
	}
	var fl struct {
		Arrivals uint64 `json:"arrivals"`
	}
	if err := json.Unmarshal(body, &fl); err != nil {
		return nil, nil, fmt.Errorf("flush response: %w", err)
	}
	rd.arrivals = fl.Arrivals
	rd.rate = float64(edges) / elapsed.Seconds()
	rd.cpu, rd.peakMiB = cpu1-cpu0, peak
	t0 := time.Now()
	if body, err = c.mustOK(http.MethodGet, "/v1/estimate?max_stale=0s"); err != nil {
		return nil, nil, err
	}
	rd.queryMS = ms(time.Since(t0))
	if err := json.Unmarshal(body, &rd.est); err != nil {
		return nil, nil, fmt.Errorf("estimate response: %w", err)
	}
	if rd.after, err = c.metrics(); err != nil {
		return nil, nil, err
	}
	return rd, queue, nil
}

// reference is a library run fed exactly what the server was fed.
type reference struct {
	view        estimateView
	restoreMS   float64 // median checkpoint restore
	estimateMS  float64 // median EstimatePost on the final snapshot
	acceptRatio float64 // accepts over the arrivals fed after the restore
}

// parallelReference restores the per-stream export with
// engine.ReadParallelCheckpoint, feeds it every batch through the public
// functions the server calls (stream.ReadBinaryStats, then
// engine.Stream.ProcessBatch) and estimates from a Snapshot. With a tracer
// it records the spans of the shadow pipeline, and reg receives the
// engine's own histograms.
func parallelReference(export []byte, batches [][]byte, tr *tracer, reg *obs.Registry) (*reference, error) {
	p, restore, err := restoreTimed(tr, "checkpoint.ReadParallelCheckpoint", func() (*engine.Parallel, error) {
		p, _, err := engine.ReadParallelCheckpoint(bytes.NewReader(export), nil)
		return p, err
	})
	if err != nil {
		return nil, fmt.Errorf("reference restore: %w", err)
	}
	defer p.Close()
	p.RegisterMetrics(reg)
	restored := p.Arrivals()
	var s engine.Stream = p
	for i, b := range batches {
		req := "shadow/batch-" + strconv.Itoa(i)
		id := tr.begin("stream.ReadBinaryStats", 0, req)
		edges, _, err := stream.ReadBinaryStats(bytes.NewReader(b))
		tr.end(id, len(edges))
		if err != nil {
			return nil, fmt.Errorf("reference decode: %w", err)
		}
		id = tr.begin("engine.Stream.ProcessBatch", 0, req)
		err = s.ProcessBatch(edges)
		tr.end(id, len(edges))
		if err != nil {
			return nil, err
		}
	}
	id := tr.begin("engine.Parallel.Snapshot", 0, "shadow/final")
	snap, err := p.Snapshot()
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	// The estimate is repeated for a steadier time in a traced run.
	reps := 1
	if tr != nil {
		reps = restoreReps
	}
	var est core.Estimates
	var times []float64
	for i := 0; i < reps; i++ {
		id := tr.begin("core.EstimatePost", 0, "shadow/final")
		t0 := time.Now()
		est = core.EstimatePost(snap)
		times = append(times, ms(time.Since(t0)))
		tr.end(id, 0)
	}
	return &reference{view: viewOf(est, snap.Threshold()), restoreMS: restore, estimateMS: median(times),
		acceptRatio: float64(snap.Accepts()) / float64(snap.Arrivals()-restored)}, nil
}

// restoreReps is how many times a shadow pipeline restores a checkpoint:
// one restore is too noisy to split a boot into restore and the rest.
const restoreReps = 3

// restoreTimed runs read restoreReps times, each under a span named name,
// and returns the engine of the last run and the median restore time in
// ms. The server restores on a fresh heap, so the benchmark's garbage is
// collected before each restore.
func restoreTimed[E interface{ Close() }](tr *tracer, name string, read func() (E, error)) (E, float64, error) {
	var e E
	var times []float64
	for i := 0; i < restoreReps; i++ {
		if i > 0 {
			e.Close()
		}
		runtime.GC()
		id := tr.begin(name, 0, "restore-"+strconv.Itoa(i))
		t0 := time.Now()
		var err error
		e, err = read()
		times = append(times, ms(time.Since(t0)))
		tr.end(id, 0)
		if err != nil {
			return e, 0, err
		}
	}
	return e, median(times), nil
}

// parseRegistry renders a registry the benchmark owns and parses it like a
// /metrics scrape.
func parseRegistry(reg *obs.Registry) scrape {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	return parseScrape(buf.Bytes())
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
