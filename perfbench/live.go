package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/stream"
)

// livePlan sizes the live workload: two streams on one server, fed on a
// fixed schedule well below capacity, with queries on their own fixed
// schedule.
type livePlan struct {
	baseScale   int           // R-MAT scale of the base graphs
	capacity    int           // m of both streams
	window      uint64        // W, in event-time units; one unit per win record
	batch       int           // records per ingest POST
	ingestEvery time.Duration // one POST per tick, alternating streams
	queryEvery  time.Duration // one query per tick, alternating kinds
	deleteEvery int           // every deleteEvery-th win record is a deletion
	deleteLag   int           // of the insert this many inserts earlier
	warm        int           // records per stream ingested before the checkpoint
	timed       time.Duration
	boots       int // server boots timed for setup_s
	// maxLag is how late the generator may run at the end of the timed
	// phase before the run is invalid: beyond it the open loop no longer
	// offers the load it claims.
	maxLag time.Duration
}

func planLive(seconds int, traced bool) livePlan {
	timed := time.Duration(seconds) * time.Second
	if traced {
		timed /= 2 // a traced run has an untraced and a traced phase
	}
	return livePlan{
		baseScale:   15,
		capacity:    5_000,
		window:      200_000,
		batch:       2048,
		ingestEvery: 10 * time.Millisecond,
		// A query every 45 ms, 277 of each kind in 25 s: a fresh
		// estimate costs about 7 ms and a window estimate about 20 ms, so
		// the query connection stays under a third busy and the loop keeps
		// its schedule.
		queryEvery:  45 * time.Millisecond,
		deleteEvery: 8,
		deleteLag:   1024,
		warm:        400_000,
		timed:       timed,
		boots:       15,
		maxLag:      500 * time.Millisecond,
	}
}

// turnstile interleaves the inserts with a deletion every `every` records
// of the insert lag inserts back, stamping record i with event time i+1.
func turnstile(inserts []graph.Edge, every, lag int) []graph.Edge {
	out := make([]graph.Edge, 0, len(inserts)+len(inserts)/(every-1)+1)
	ins := 0
	for ins < len(inserts) {
		ts := uint64(len(out) + 1)
		if (len(out)+1)%every == 0 && ins >= lag {
			d := inserts[ins-lag].AsDeletion()
			d.TS = ts
			out = append(out, d)
			continue
		}
		e := inserts[ins]
		e.TS = ts
		out = append(out, e)
		ins++
	}
	return out
}

// liveInputs are the encoded batches of both streams.
type liveInputs struct {
	warmDef, warmWin [][]byte
	def, win         [][]byte // timed batches
	timedRecs        int      // timed records per stream
	wire             int      // encoded bytes of the timed batches
}

func buildLiveInputs(plan livePlan, seed uint64) (*liveInputs, error) {
	perStream := int(plan.timed/plan.ingestEvery+1) / 2 * plan.batch
	need := plan.warm + perStream
	span := graph.NodeID(1) << plan.baseScale
	copies := func(base []graph.Edge, n int) []graph.Edge {
		var out []graph.Edge
		for c := 0; len(out) < n; c++ {
			out = append(out, copyEdges(base, c, span)...)
		}
		return out[:n]
	}
	def := copies(gen.RMAT(plan.baseScale, 16, 0.57, 0.19, 0.19, seed), need)
	win := turnstile(copies(gen.RMAT(plan.baseScale, 16, 0.57, 0.19, 0.19, seed+1), need), plan.deleteEvery, plan.deleteLag)[:need]
	in := &liveInputs{timedRecs: perStream}
	var err error
	for _, x := range []struct {
		dst   *[][]byte
		edges []graph.Edge
	}{
		{&in.warmDef, def[:plan.warm]}, {&in.def, def[plan.warm:]},
		{&in.warmWin, win[:plan.warm]}, {&in.win, win[plan.warm:]},
	} {
		if *x.dst, err = encodeBatches(x.edges, plan.batch); err != nil {
			return nil, err
		}
	}
	for k := 0; k < in.sends(); k++ {
		_, b := in.sequence(k)
		in.wire += len(b)
	}
	return in, nil
}

// liveQuery is one scheduled query of a timed phase.
type liveQuery struct {
	window  bool
	due     time.Time
	sent    time.Time
	done    time.Time
	ok      bool
	panes   int
	fedUpTo int // ingest sends acknowledged when the query was sent
}

// livePhase is what one timed phase measured.
type livePhase struct {
	queries      []liveQuery
	ingestLate   []time.Duration // per ingest send, how late it started
	posts        int
	refused      int
	queueAcks    []float64     // queued batches per ingest ack, traced phase only
	absorbed     time.Duration // first scheduled send to both flushes answered
	cpu          time.Duration
	peakMiB      float64
	before       scrape
	after        scrape
	final        map[string]estimateView
	arrivals     map[string]uint64
	queueStart   float64
	queueEnd     float64
	invalid      string
	lastIngestAt time.Duration // lateness of the last ingest send
	lastQueryAt  time.Duration // lateness of the last query send
}

func (ph *livePhase) latencies(window bool) []float64 {
	var out []float64
	for _, q := range ph.queries {
		if q.window != window {
			continue
		}
		if !q.ok {
			out = append(out, math.Inf(1)) // a failed query misses every limit
			continue
		}
		out = append(out, ms(q.done.Sub(q.due)))
	}
	return out
}

// service lists how long each answered query of one kind took from its
// actual send, in ms.
func (ph *livePhase) service(window bool) []float64 {
	var out []float64
	for _, q := range ph.queries {
		if q.window == window && q.ok {
			out = append(out, ms(q.done.Sub(q.sent)))
		}
	}
	return out
}

// sequence returns timed batch k of the alternating ingest schedule:
// even ticks feed the default stream, odd ticks the window stream.
func (in *liveInputs) sequence(k int) (name string, b []byte) {
	if k%2 == 0 {
		return "default", in.def[k/2]
	}
	return "win", in.win[k/2]
}

func (in *liveInputs) sends() int { return len(in.def) + len(in.win) }

func runLive(o *options) (*outcome, error) { return liveWith(o, planLive(o.seconds, o.trace)) }

// writeManifest writes the -streams manifest declaring the window stream.
func writeManifest(o *options, plan livePlan) (string, error) {
	path := filepath.Join(o.workDir, "streams.json")
	spec, err := json.Marshal([]map[string]any{{"name": "win", "window": plan.window, "pane_width": plan.window / 4}})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, spec, 0o644)
}

func liveWith(o *options, plan livePlan) (*outcome, error) {
	in, err := buildLiveInputs(plan, o.seed)
	if err != nil {
		return nil, err
	}
	manifest, err := writeManifest(o, plan)
	if err != nil {
		return nil, err
	}
	ckpt, exports, err := prepareLive(o, plan, in, manifest)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var boots []float64
	phases := 1
	if o.trace {
		phases = 2 // untraced, then traced
	}
	for i := phases; i < plan.boots; i++ {
		srv, err := launchServer(o, "-restore", ckpt, "-streams", manifest)
		if err != nil {
			return nil, err
		}
		boots = append(boots, srv.boot.Seconds())
		srv.shutdown()
	}
	var runs []*livePhase
	var tr *tracer
	for i := 0; i < phases; i++ {
		var ptr *tracer
		if i == 1 {
			tr = newTracer()
			ptr = tr
		}
		srv, err := launchServer(o, "-restore", ckpt, "-streams", manifest)
		if err != nil {
			return nil, err
		}
		boots = append(boots, srv.boot.Seconds())
		ph, err := liveOnePhase(srv, plan, in, ptr)
		srv.shutdown()
		if err != nil {
			return nil, err
		}
		runs = append(runs, ph)
		out.attempted += int64(ph.posts+len(ph.queries)) + 4 // + two flushes, two final estimates
		for _, q := range ph.queries {
			if !q.ok {
				out.failed++
			}
		}
	}
	ph := runs[0]
	out.diag["ingest_late_ms_max"] = ms(maxDuration(ph.ingestLate))
	out.diag["ingest_late_ms_p99"] = quantile(durationsMS(ph.ingestLate), 0.99)
	out.diag["ingest_late_ms_end"] = ms(ph.lastIngestAt)
	out.diag["query_late_ms_end"] = ms(ph.lastQueryAt)
	out.diag["queue_batches_start"] = ph.queueStart
	out.diag["queue_batches_end"] = ph.queueEnd
	out.diag["ingest_posts"] = ph.posts
	out.diag["ingest_refused"] = ph.refused // 503s, retried
	out.diag["timed_records_per_stream"] = in.timedRecs
	out.diag["estimate_service_ms_p50"] = median(ph.service(false))
	out.diag["window_service_ms_p50"] = median(ph.service(true))
	for _, p := range runs {
		if p.invalid != "" {
			out.invalid = p.invalid
			return out, nil
		}
	}

	// The library references restore the same per-stream exports and are
	// fed the same records; in a traced run they are also the shadow
	// pipeline, replaying the traced phase's query schedule.
	reg := obs.NewRegistry()
	var schedule []liveQuery
	if tr != nil {
		schedule = runs[1].queries
	}
	sh, err := liveShadow(exports, in, plan, schedule, tr, reg)
	if err != nil {
		return nil, err
	}
	out.gateErrs = liveGates(runs, uint64(plan.warm+in.timedRecs), sh.final)

	fresh, win := ph.latencies(false), ph.latencies(true)
	m := out.metrics
	m["setup_s"] = median(boots)
	m["peak_rss_mb"] = ph.peakMiB
	m["cpu_s"] = ph.cpu.Seconds()
	// The write load is offered on a schedule, so edges_per_s reads the
	// offered rate unless the server falls behind; the queries carry the
	// workload, and query_ms weighs both kinds alike.
	m["edges_per_s"] = float64(2*in.timedRecs) / ph.absorbed.Seconds()
	m["query_ms"] = (quantile(fresh, 0.50) + quantile(win, 0.50)) / 2
	// Each kind on its own, for the diagnostics line.
	m["estimate_p50_ms"] = quantile(fresh, 0.50)
	m["estimate_p95_ms"] = quantile(fresh, 0.95)
	m["window_estimate_p50_ms"] = quantile(win, 0.50)
	m["window_estimate_p95_ms"] = quantile(win, 0.95)
	out.diag["estimate_samples"] = len(fresh)
	out.diag["window_estimate_samples"] = len(win)
	out.diag["checkpoint_bytes"] = fileSize(ckpt)

	if tr != nil {
		tp := runs[1]
		spans := tr.snapshot()
		if err := tr.write(o.spans); err != nil {
			return nil, err
		}
		st := ledger(spans)
		var selfFresh, selfWin, sumFresh, sumWin, panes []float64
		fi, wi := 0, 0
		for _, q := range tp.queries {
			client := ms(q.done.Sub(q.sent))
			if q.window {
				engineMS := sh.windowQuery[wi]
				selfWin = append(selfWin, client-engineMS)
				sumWin = append(sumWin, client)
				panes = append(panes, float64(q.panes))
				wi++
			} else {
				engineMS := sh.snapshot[fi] + sh.estimate[fi]
				selfFresh = append(selfFresh, client-engineMS)
				sumFresh = append(sumFresh, client)
				fi++
			}
		}
		restore := sh.restoreMS
		var stall, barrier, clone, merge []float64
		for i := range sh.snapshot {
			stall = append(stall, sh.stall[i])
			barrier = append(barrier, sh.barrier[i])
			clone = append(clone, sh.stall[i]-sh.barrier[i])
			merge = append(merge, sh.snapshot[i]-sh.stall[i])
		}
		cloned := delta(tp.before, tp.after, "gps_engine_snapshot_shards_cloned_total")
		reused := delta(tp.before, tp.after, "gps_engine_snapshot_shards_reused_total")
		own := parseRegistry(reg)
		admit := st["engine.Stream.ProcessBatch"]
		winAdmit := st["engine.Windowed.ProcessBatch"]
		decode := st["stream.ReadBinaryStats"]
		m["query_p95_ms"] = (m["estimate_p95_ms"] + m["window_estimate_p95_ms"]) / 2
		m["stream.decode_ns_per_edge"] = float64(decode.Self) / float64(decode.Items)
		m["stream.wire_bytes_per_edge"] = float64(in.wire) / float64(2*in.timedRecs)
		m["serve.ingest_posts"] = float64(tp.posts)
		m["serve.ingest_refused_ratio"] = float64(tp.refused) / float64(tp.posts)
		m["serve.queue_batches_p50"] = median(tp.queueAcks)
		// The engine counters are the default stream's.
		drainEdges := delta(tp.before, tp.after, "gps_engine_drain_batch_edges_sum")
		drainSpans := delta(tp.before, tp.after, "gps_engine_drain_batch_edges_count")
		m["engine.drain_batch_edges_mean"] = drainEdges / drainSpans
		m["engine.ring_stalls"] = delta(tp.before, tp.after, "gps_engine_ring_stalls_total")
		m["engine.ring_parks"] = delta(tp.before, tp.after, "gps_engine_ring_parks_total")
		m["serve.self_ms_per_estimate"] = median(selfFresh)
		m["serve.self_ms_per_window_estimate"] = median(selfWin)
		m["serve.boot_ms"] = m["setup_s"]*1e3 - restore
		m["engine.admit_ns_per_edge"] = float64(admit.Self) / float64(admit.Items)
		m["core.process_ns_per_edge"] = own["gps_engine_drain_batch_seconds_sum"] * 1e9 / float64(admit.Items)
		m["engine.barrier_ms_p50"] = median(barrier)
		m["engine.snapshot_stall_ms_p50"] = median(stall)
		m["engine.clone_ms_p50"] = median(clone)
		m["engine.snapshot_clone_ratio"] = cloned / (cloned + reused)
		m["engine.merge_ms_p50"] = median(merge)
		m["engine.window_admit_ns_per_record"] = float64(winAdmit.Self) / float64(winAdmit.Items)
		m["engine.window_query_ms_p50"] = median(sh.windowQuery)
		m["engine.window_panes_per_query"] = mean(panes)
		m["core.estimate_post_ms_p50"] = median(sh.estimate)
		m["core.accept_ratio"] = sh.acceptRatio
		m["checkpoint.restore_ms"] = restore
		m["checkpoint.bytes"] = float64(fileSize(ckpt))
		// Ledger per query, the mean of both kinds as in query_ms:
		// serve's own time plus the engine and core stages of the same
		// query, against the untraced latency, which also counts the wait
		// from the scheduled send time.
		m["ledger.e2e_ms_per_op"] = m["query_ms"]
		m["ledger.stage_sum_ms_per_op"] = (median(sumFresh) + median(sumWin)) / 2
		m["ledger.residual_ms_per_op"] = m["ledger.e2e_ms_per_op"] - m["ledger.stage_sum_ms_per_op"]
		m["ledger.residual_ms_per_estimate"] = m["estimate_p50_ms"] - median(sumFresh)
		m["ledger.residual_ms_per_window_estimate"] = m["window_estimate_p50_ms"] - median(sumWin)
		traced := (quantile(tp.latencies(false), 0.5) + quantile(tp.latencies(true), 0.5)) / 2
		m["ledger.trace_overhead_ratio"] = traced/m["query_ms"] - 1
		out.diag["ledger_ms_per_estimate"] = map[string]float64{
			"serve.self": median(selfFresh), "engine.Parallel.Snapshot": median(sh.snapshot), "core.EstimatePost": median(sh.estimate),
		}
		out.diag["ledger_ms_per_window_estimate"] = map[string]float64{
			"serve.self": median(selfWin), "engine.Windowed.Query": median(sh.windowQuery),
		}
		out.diag["stages"] = st
	}
	return out, nil
}

// liveGates checks every phase: each stream flushed at one arrival per
// record sent, and its final estimate equals the library reference
// (engine.Parallel for default, engine.Windowed for win) bit for bit.
func liveGates(runs []*livePhase, want uint64, ref map[string]estimateView) []string {
	var errs []string
	for i, p := range runs {
		for _, name := range []string{"default", "win"} {
			if p.arrivals[name] != want {
				errs = append(errs, fmt.Sprintf("phase %d: stream %s flushed at %d arrivals, %d records were sent",
					i, name, p.arrivals[name], want))
			}
			if p.final[name] != ref[name] {
				errs = append(errs, fmt.Sprintf("phase %d: stream %s estimate %+v differs from the library reference %+v",
					i, name, p.final[name], ref[name]))
			}
		}
	}
	return errs
}

// validity says why a phase does not measure the load it claims, or ""
// when it does: the generator kept its schedule and the backlog did not
// grow.
func (ph *livePhase) validity(plan livePlan) string {
	switch {
	case ph.lastIngestAt > plan.maxLag:
		return fmt.Sprintf("ingest ran %v behind schedule at the end of the timed phase", ph.lastIngestAt)
	case ph.lastQueryAt > plan.maxLag:
		return fmt.Sprintf("queries ran %v behind schedule at the end of the timed phase", ph.lastQueryAt)
	case ph.queueEnd > ph.queueStart+2:
		return fmt.Sprintf("ingest backlog grew from %v to %v batches", ph.queueStart, ph.queueEnd)
	}
	return ""
}

// prepareLive boots a fresh server with both streams, ingests the warm
// prefix into each, persists a KindMulti checkpoint and exports each
// stream, then stops the server.
func prepareLive(o *options, plan livePlan, in *liveInputs, manifest string) (string, map[string][]byte, error) {
	srv, err := launchServer(o, "-m", strconv.Itoa(plan.capacity), "-weight", "triangle",
		"-seed", strconv.FormatUint(o.seed, 10), "-streams", manifest,
		"-checkpoint-dir", filepath.Join(o.workDir, "ckpt"))
	if err != nil {
		return "", nil, err
	}
	defer srv.shutdown()
	c := newConn(srv.base)
	defer c.close()
	for i := range in.warmDef {
		if _, _, err := postBatch(c, "/v1/ingest", in.warmDef[i], nil, 0, "", nil); err != nil {
			return "", nil, err
		}
		if _, _, err := postBatch(c, "/v1/ingest?stream=win", in.warmWin[i], nil, 0, "", nil); err != nil {
			return "", nil, err
		}
	}
	return checkpointServer(c, o.workDir, "default", "win")
}

// liveOnePhase runs the open loop for plan.timed on a restored server: one
// connection sends the ingest schedule, the other the query schedule. It
// then checks the run kept its schedule, flushes both streams and reads
// their final estimates.
func liveOnePhase(srv *server, plan livePlan, in *liveInputs, tr *tracer) (*livePhase, error) {
	ing, qc := newConn(srv.base), newConn(srv.base)
	defer ing.close()
	defer qc.close()
	ph := &livePhase{final: map[string]estimateView{}, arrivals: map[string]uint64{}}
	var err error
	if ph.before, err = qc.metrics(); err != nil {
		return nil, err
	}
	ph.queueStart = ph.before["gps_serve_queue_batches"] + ph.before[`gps_serve_queue_batches{stream="win"}`]
	cpu0, _, err := srv.usage()
	if err != nil {
		return nil, err
	}
	// The generator collects its garbage before, not during, the timed phase.
	runtime.GC()
	var acked atomic.Int64 // ingest sends acknowledged so far
	var stop atomic.Bool   // the query loop failed: stop sending
	var ingErr error
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(plan.timed)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < in.sends() && !stop.Load(); k++ {
			due := start.Add(time.Duration(k) * plan.ingestEvery)
			time.Sleep(time.Until(due))
			late := time.Since(due)
			ph.ingestLate = append(ph.ingestLate, late)
			ph.lastIngestAt = late
			name, b := in.sequence(k)
			path := "/v1/ingest"
			if name != "default" {
				path += "?stream=" + name
			}
			req := "ingest-" + strconv.Itoa(k)
			var queue *[]float64
			if tr != nil {
				queue = &ph.queueAcks
			}
			a, r, err := postBatch(ing, path, b, tr, 0, req, queue)
			ph.posts += a
			ph.refused += r
			if err != nil {
				ingErr = err
				return
			}
			acked.Store(int64(k + 1))
		}
	}()
	for j := 0; ; j++ {
		due := start.Add(plan.queryEvery/2 + time.Duration(j)*plan.queryEvery)
		if due.After(end) {
			break
		}
		time.Sleep(time.Until(due))
		q := liveQuery{window: j%2 == 1, due: due, sent: time.Now(), fedUpTo: int(acked.Load())}
		ph.lastQueryAt = q.sent.Sub(due)
		path, name := "/v1/estimate?max_stale=0s", "serve.GET /v1/estimate"
		if q.window {
			path, name = "/v1/estimate?stream=win&window="+strconv.FormatUint(plan.window, 10), "serve.GET /v1/estimate?window"
		}
		id := tr.begin(name, 0, "query-"+strconv.Itoa(j))
		status, body, err := qc.get(path)
		q.done = time.Now()
		tr.end(id, 0)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		if q.ok = status == http.StatusOK; q.ok && q.window {
			var v estimateView
			if err := json.Unmarshal(body, &v); err == nil {
				q.panes = v.WindowPanes
			}
		}
		ph.queries = append(ph.queries, q)
	}
	wg.Wait()
	if ingErr != nil {
		return nil, ingErr
	}
	cpu1, peak, err := srv.usage()
	if err != nil {
		return nil, err
	}
	ph.cpu, ph.peakMiB = cpu1-cpu0, peak
	if ph.after, err = qc.metrics(); err != nil {
		return nil, err
	}
	ph.queueEnd = ph.after["gps_serve_queue_batches"] + ph.after[`gps_serve_queue_batches{stream="win"}`]
	ph.invalid = ph.validity(plan)
	for _, name := range []string{"default", "win"} {
		body, err := qc.mustOK(http.MethodPost, "/v1/flush?stream="+name)
		if err != nil {
			return nil, err
		}
		var fl struct {
			Arrivals uint64 `json:"arrivals"`
		}
		if err := json.Unmarshal(body, &fl); err != nil {
			return nil, fmt.Errorf("flush response: %w", err)
		}
		ph.arrivals[name] = fl.Arrivals
	}
	ph.absorbed = time.Since(start)
	for name, path := range map[string]string{
		"default": "/v1/estimate?max_stale=0s",
		"win":     "/v1/estimate?stream=win&window=" + strconv.FormatUint(plan.window, 10),
	} {
		body, err := qc.mustOK(http.MethodGet, path)
		if err != nil {
			return nil, err
		}
		var v estimateView
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, fmt.Errorf("estimate response: %w", err)
		}
		ph.final[name] = v
	}
	return ph, nil
}

// liveShadowResult holds the reference estimates and, for a traced run,
// the per-query stage times of the shadow pipeline (ms, in query order).
type liveShadowResult struct {
	final       map[string]estimateView
	snapshot    []float64 // Parallel.Snapshot span
	stall       []float64 // LastSnapshotStall: barrier plus dirty clone
	barrier     []float64 // gps_engine_barrier_wait_seconds, this query's share
	estimate    []float64 // core.EstimatePost span
	windowQuery []float64 // Windowed.Query span
	acceptRatio float64
	restoreMS   float64 // median restores of both exports, summed
}

// liveShadow restores both per-stream exports and feeds them the timed
// records through the public functions the server calls. With a schedule
// it replays the traced phase's queries at the stream positions they were
// sent, waiting for the rings to drain first as they do under the light
// live load.
func liveShadow(exports map[string][]byte, in *liveInputs, plan livePlan, schedule []liveQuery, tr *tracer, reg *obs.Registry) (*liveShadowResult, error) {
	def, defMS, err := restoreTimed(tr, "checkpoint.ReadParallelCheckpoint", func() (*engine.Parallel, error) {
		p, _, err := engine.ReadParallelCheckpoint(bytes.NewReader(exports["default"]), nil)
		return p, err
	})
	if err != nil {
		return nil, fmt.Errorf("reference restore: %w", err)
	}
	defer def.Close()
	win, winMS, err := restoreTimed(tr, "checkpoint.ReadWindowedCheckpoint", func() (*engine.Windowed, error) {
		w, _, err := engine.ReadWindowedCheckpoint(bytes.NewReader(exports["win"]), nil)
		return w, err
	})
	if err != nil {
		return nil, fmt.Errorf("reference restore: %w", err)
	}
	defer win.Close()
	def.RegisterMetrics(reg)
	barrierSum := func() float64 { return parseRegistry(reg)["gps_engine_barrier_wait_seconds_sum"] * 1e3 }
	restored := def.Arrivals()

	res := &liveShadowResult{final: map[string]estimateView{}, restoreMS: defMS + winMS}
	var dst engine.Stream = def
	fed := 0
	feedTo := func(k int) error {
		for ; fed < k; fed++ {
			name, b := in.sequence(fed)
			req := "shadow/ingest-" + strconv.Itoa(fed)
			id := tr.begin("stream.ReadBinaryStats", 0, req)
			edges, _, err := stream.ReadBinaryStats(bytes.NewReader(b))
			tr.end(id, len(edges))
			if err != nil {
				return fmt.Errorf("reference decode: %w", err)
			}
			if name == "default" {
				id = tr.begin("engine.Stream.ProcessBatch", 0, req)
				err = dst.ProcessBatch(edges)
			} else {
				id = tr.begin("engine.Windowed.ProcessBatch", 0, req)
				err = win.ProcessBatch(edges)
			}
			tr.end(id, len(edges))
			if err != nil {
				return err
			}
			if tr != nil {
				drainRings(def, win)
			}
		}
		return nil
	}
	for j, q := range schedule {
		if err := feedTo(q.fedUpTo); err != nil {
			return nil, err
		}
		drainRings(def, win)
		req := "shadow/query-" + strconv.Itoa(j)
		if q.window {
			id := tr.begin("engine.Windowed.Query", 0, req)
			t0 := time.Now()
			_, err := win.Query(plan.window)
			res.windowQuery = append(res.windowQuery, ms(time.Since(t0)))
			tr.end(id, 0)
			if err != nil {
				return nil, err
			}
			continue
		}
		b0 := barrierSum()
		id := tr.begin("engine.Parallel.Snapshot", 0, req)
		t0 := time.Now()
		snap, err := def.Snapshot()
		res.snapshot = append(res.snapshot, ms(time.Since(t0)))
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		res.stall = append(res.stall, ms(def.LastSnapshotStall()))
		res.barrier = append(res.barrier, barrierSum()-b0)
		id = tr.begin("core.EstimatePost", 0, req)
		t0 = time.Now()
		core.EstimatePost(snap)
		res.estimate = append(res.estimate, ms(time.Since(t0)))
		tr.end(id, 0)
	}
	if err := feedTo(in.sends()); err != nil {
		return nil, err
	}
	snap, err := def.Snapshot()
	if err != nil {
		return nil, err
	}
	res.final["default"] = viewOf(core.EstimatePost(snap), snap.Threshold())
	res.acceptRatio = float64(snap.Accepts()) / float64(snap.Arrivals()-restored)
	we, err := win.Query(plan.window)
	if err != nil {
		return nil, err
	}
	v := viewOf(we.Estimates, we.Threshold)
	v.WindowEdges, v.WindowPanes = we.Edges, we.Panes
	res.final["win"] = v
	return res, nil
}

// drainRings waits until both engines' ingest rings are empty, or a
// second has passed: the query's own barrier drains whatever is left.
func drainRings(def *engine.Parallel, win *engine.Windowed) {
	deadline := time.Now().Add(time.Second)
	for (def.RingStats().Backlog > 0 || win.RingStats().Backlog > 0) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
