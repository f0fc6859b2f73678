package serve

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gps/internal/fault"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/stream"
)

// armServeFaults arms a fault spec for the duration of the test.
func armServeFaults(t *testing.T, seed uint64, spec string) {
	t.Helper()
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("fault spec %q: %v", spec, err)
	}
	fault.Arm(seed, rules)
	t.Cleanup(fault.Disarm)
}

// postSequenced posts a batch with the at-least-once dedup headers.
func postSequenced(t *testing.T, url, source string, seq uint64, edges []graph.Edge) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := stream.WriteEdgeList(&body, edges); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ingest", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-GPS-Source", source)
	req.Header.Set("X-GPS-Seq", fmtUint(seq))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func fmtUint(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(buf[i:])
}

// waitProcessed polls /v1/stats until gps_serve_edges_processed_total
// reaches want.
func waitProcessed(t *testing.T, url string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := getStats(t, url).Metrics["gps_serve_edges_processed_total"]
		if got >= float64(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("edges processed = %g, want >= %d", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeIngestDedup: a retried sequence number is acknowledged without
// re-feeding the sampler — the server half of the at-least-once contract.
func TestServeIngestDedup(t *testing.T) {
	edges := gen.ErdosRenyi(60, 400, 3)
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 1})

	resp := postSequenced(t, ts.URL, "loader-a", 1, edges[:200])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first seq: status %d", resp.StatusCode)
	}
	if body := decodeJSON[map[string]any](t, resp); body["duplicate"] != nil {
		t.Fatalf("first delivery flagged duplicate: %v", body)
	}
	// The retry of an acknowledged sequence applies nothing.
	resp = postSequenced(t, ts.URL, "loader-a", 1, edges[:200])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate seq: status %d", resp.StatusCode)
	}
	if body := decodeJSON[map[string]any](t, resp); body["duplicate"] != true || body["accepted"].(float64) != 0 {
		t.Fatalf("duplicate response = %v", body)
	}
	// A different source has its own watermark.
	resp = postSequenced(t, ts.URL, "loader-b", 1, edges[200:])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other source: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	flush(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	est := decodeJSON[estimateResponse](t, resp)
	if est.Arrivals != uint64(len(edges)) {
		t.Fatalf("arrivals = %d, want %d (duplicate batch must not re-apply)", est.Arrivals, len(edges))
	}

	if got := getStats(t, ts.URL).Metrics["gps_serve_duplicate_batches_total"]; got != 1 {
		t.Fatalf("duplicate batches = %g, want 1", got)
	}
}

// TestServeIngestSeqValidation: malformed dedup headers are client errors.
func TestServeIngestSeqValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 1})
	for _, hdr := range []struct{ source, seq string }{
		{"loader", ""},     // source without seq
		{"loader", "zero"}, // non-numeric
		{"loader", "0"},    // sequence numbers start at 1
		{"loader", "-4"},   // negative
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest", strings.NewReader("1 2\n"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-GPS-Source", hdr.source)
		if hdr.seq != "" {
			req.Header.Set("X-GPS-Seq", hdr.seq)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("seq %q: status %d (%s), want 400", hdr.seq, resp.StatusCode, body)
		}
	}
}

// TestServeIngestAckFault simulates the lost-acknowledgement failure the
// dedup watermark exists for: the batch is committed but the 202 is
// replaced by an injected 503. The client's retry of the same sequence
// dedups instead of double-applying.
func TestServeIngestAckFault(t *testing.T) {
	edges := gen.ErdosRenyi(50, 300, 9)
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 2})
	armServeFaults(t, 7, "serve.ingest.ack:error:times=1")

	resp := postSequenced(t, ts.URL, "loader", 1, edges)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted ack: status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("faulted ack carries no Retry-After")
	}
	// Retry as an at-least-once client would: same source, same seq.
	resp = postSequenced(t, ts.URL, "loader", 1, edges)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry: status %d", resp.StatusCode)
	}
	if body := decodeJSON[map[string]any](t, resp); body["duplicate"] != true {
		t.Fatalf("retry not deduplicated: %v", body)
	}
	fault.Disarm()
	flush(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	if est := decodeJSON[estimateResponse](t, resp); est.Arrivals != uint64(len(edges)) {
		t.Fatalf("arrivals = %d, want %d (exactly-once application)", est.Arrivals, len(edges))
	}
}

// TestServeHTTPFault: the route-level fault point turns any request into a
// uniform 503 + Retry-After — the transient-failure class clients retry on.
func TestServeHTTPFault(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 3})
	armServeFaults(t, 7, "serve.http:error:times=1")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on injected 503")
	}
	if !strings.Contains(string(body), "injected") {
		t.Fatalf("body %q does not surface the injected error", body)
	}
	// The rule is exhausted: the service is healthy again.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault status %d, want 200", resp.StatusCode)
	}
}

// TestServeStreamDecodeFault: a decode-layer fault surfaces as a 400 — the
// client-error class — never a 500.
func TestServeStreamDecodeFault(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 4})
	armServeFaults(t, 7, "stream.decode:error:times=1")
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestServeEstimateDeadline: a refresh held open past EstimateDeadline
// falls back to the previous snapshot flagged degraded; with no previous
// snapshot the query sheds with 503.
func TestServeEstimateDeadline(t *testing.T) {
	edges := gen.ErdosRenyi(80, 600, 5)
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 5, EstimateDeadline: 60 * time.Millisecond})

	// No snapshot yet + stuck refresh: the deadline sheds the query.
	armServeFaults(t, 7, "serve.snapshot:latency:delay=400ms,times=2")
	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-snapshot deadline: status %d (%s), want 503", resp.StatusCode, body)
	}
	fault.Disarm()

	// The stalled refresh keeps running in the background and installs its
	// snapshot when the injected delay elapses; wait for the cache to turn
	// healthy — that snapshot is the stale-fallback anchor for the next
	// phase.
	var primed estimateResponse
	primeDeadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			primed = decodeJSON[estimateResponse](t, resp)
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if time.Now().After(primeDeadline) {
			t.Fatal("estimate never recovered after the stalled refresh")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if primed.Degraded {
		t.Fatal("healthy estimate flagged degraded")
	}
	resp = postEdges(t, ts.URL, edges, false)
	resp.Body.Close()
	waitProcessed(t, ts.URL, uint64(len(edges)))
	armServeFaults(t, 7, "serve.snapshot:latency:delay=400ms,times=1")
	start := time.Now()
	resp, err = http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale fallback status = %d, want 200", resp.StatusCode)
	}
	est := decodeJSON[estimateResponse](t, resp)
	if waited := time.Since(start); waited > 300*time.Millisecond {
		t.Fatalf("deadline did not bound the wait: %v", waited)
	}
	if !est.Degraded {
		t.Fatal("stale fallback not flagged degraded")
	}
	if est.Arrivals != primed.Arrivals {
		t.Fatalf("fallback arrivals = %d, want the primed snapshot's %d", est.Arrivals, primed.Arrivals)
	}
	fault.Disarm()

	// The stalled refresh finished in the background; strict freshness works
	// again and covers the new edges.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/v1/estimate?max_stale=0s")
		if err != nil {
			t.Fatal(err)
		}
		est = decodeJSON[estimateResponse](t, resp)
		if est.Arrivals == uint64(len(edges)) && !est.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimate never recovered: arrivals=%d degraded=%v", est.Arrivals, est.Degraded)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if getStats(t, ts.URL).Metrics["gps_serve_degraded_queries_total"] == 0 {
		t.Fatal("degraded queries counter did not move")
	}
}

// TestServeQueryShedding: more concurrent estimates than
// MaxInflightQueries are shed with 429 + Retry-After.
func TestServeQueryShedding(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 6, MaxInflightQueries: 1})
	// Hold the only slot open with a stalled forced-fresh refresh.
	armServeFaults(t, 7, "serve.snapshot:latency:delay=500ms,times=1")
	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	// Wait (via /v1/stats, which is never shed) until the slow query has
	// been admitted and occupies the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if getStats(t, ts.URL).Metrics["gps_serve_inflight_queries"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow query never occupied the slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	if status := <-first; status != http.StatusOK {
		t.Fatalf("slot-holding query status = %d", status)
	}
	if getStats(t, ts.URL).Metrics["gps_serve_shed_total"] == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestServeIngestPanicRecovery: a panic escaping the engine's admission
// path (injected at the ring publish) is recovered by the ingest loop —
// the service keeps serving and the loss is counted, and a flush behind
// the poisoned batch still completes.
func TestServeIngestPanicRecovery(t *testing.T) {
	edges := gen.ErdosRenyi(60, 500, 11)
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 7})
	armServeFaults(t, 7, "engine.ring.publish:panic:times=1")
	resp := postEdges(t, ts.URL, edges[:250], false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	flush(t, ts.URL) // the dropped batch still counts as drained
	fault.Disarm()

	resp = postEdges(t, ts.URL, edges[250:], false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	flush(t, ts.URL)

	m := getStats(t, ts.URL).Metrics
	if got := m["gps_serve_ingest_panics_total"]; got != 1 {
		t.Fatalf("ingest panics = %g, want 1", got)
	}
	if b, e := m["gps_serve_queue_batches"], m["gps_serve_queue_edges"]; b != 0 || e != 0 {
		t.Fatalf("pending counters leaked: batches=%g edges=%g", b, e)
	}
}

// TestServeDegradedFromEngine: a lossy shard recovery (panic with no clone
// to restore from) degrades the whole read path — shard health in stats,
// degraded=true on estimates.
func TestServeDegradedFromEngine(t *testing.T) {
	edges := gen.ErdosRenyi(60, 500, 13)
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 8, Shards: 1})
	// Drain a first batch cleanly so the scratch rebuild has something to
	// lose (a panic on the very first span would replay it exactly).
	resp := postEdges(t, ts.URL, edges[:250], false)
	resp.Body.Close()
	flush(t, ts.URL)
	armServeFaults(t, 7, "engine.shard.drain:panic:times=1")
	resp = postEdges(t, ts.URL, edges[250:], false)
	resp.Body.Close()
	flush(t, ts.URL)
	fault.Disarm()

	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	if est := decodeJSON[estimateResponse](t, resp); !est.Degraded {
		t.Fatal("estimate after lossy recovery not flagged degraded")
	}
	st := getStats(t, ts.URL)
	m := st.Metrics
	if m["gps_engine_shards_degraded"] != 1 || m["gps_engine_shard_restarts_total"] != 1 || m["gps_engine_shard_lost_edges_total"] == 0 {
		t.Fatalf("stats = degraded shards %g, restarts %g, lost %g; want 1 degraded shard with 1 restart",
			m["gps_engine_shards_degraded"], m["gps_engine_shard_restarts_total"], m["gps_engine_shard_lost_edges_total"])
	}
	if h := st.Streams[0].ShardHealth; len(h) != 1 || !strings.Contains(h[0].LastPanic, "engine.shard.drain") {
		t.Fatalf("shard_health = %+v", h)
	}
}

// TestServeWindowDegradedFromEngine: on a windowed stream, a lossy shard
// recovery in a pane flags every window answer that merges that pane
// degraded, the live pane before its rotation and the retired one after it,
// and no answer that leaves it out: a ?window= that starts after it, or
// any query once the pane is pruned. The engine and the shard's
// /v1/stats shard_health report it degraded while the engine retains the
// pane. The supervisor counters in /metrics count the recovery across
// panes: they appear with it and never drop, neither when its pane retires
// nor when it is pruned, and shard_health counts the same.
func TestServeWindowDegradedFromEngine(t *testing.T) {
	edges := gen.ErdosRenyi(60, 500, 13)
	for i := range edges {
		edges[i] = edges[i].At(uint64(i + 1))
	}
	srv, ts := newTestServer(t, Config{Capacity: 1000, Seed: 8, Shards: 1, Window: 2000, PaneWidth: 1000})
	degradedQueries := func() float64 { return getStats(t, ts.URL).Metrics["gps_serve_degraded_queries_total"] }
	post := func(batch ...graph.Edge) {
		t.Helper()
		resp := postEdges(t, ts.URL, batch, false)
		resp.Body.Close()
		flush(t, ts.URL)
	}
	check := func(step, query string, want bool) {
		t.Helper()
		before := degradedQueries()
		if got := getEstimate(t, ts.URL, query).Degraded; got != want {
			t.Fatalf("%s: estimate%s degraded = %v, want %v", step, query, got, want)
		}
		wantCounted := 0.0
		if want {
			wantCounted = 1
		}
		if counted := degradedQueries() - before; counted != wantCounted {
			t.Fatalf("%s: degraded query counter moved by %g, want %g", step, counted, wantCounted)
		}
	}
	// shardHealth sums the default stream's /v1/stats shard_health.
	shardHealth := func() (restarts, lost float64, degraded bool) {
		for _, h := range getStats(t, ts.URL).Streams[0].ShardHealth {
			restarts += float64(h.Restarts)
			lost += float64(h.LostEdges)
			degraded = degraded || h.Degraded
		}
		return restarts, lost, degraded
	}
	engineDegraded := func(step string, want bool) {
		t.Helper()
		if got := srv.def.eng.Degraded(); got != want {
			t.Fatalf("%s: engine Degraded() = %v, want %v", step, got, want)
		}
		if _, _, got := shardHealth(); got != want {
			t.Fatalf("%s: shard_health degraded = %v, want %v", step, got, want)
		}
	}
	var restarts, lost float64
	counters := func(step string) {
		t.Helper()
		scrape := scrapeMetrics(t, ts.URL)
		r, okR := metricValue(scrape, "gps_engine_shard_restarts_total")
		l, okL := metricValue(scrape, "gps_engine_shard_lost_edges_total")
		if !okR || !okL {
			t.Fatalf("%s: supervisor counters in /metrics: restarts %v, lost edges %v; want both", step, okR, okL)
		}
		if r < restarts || l < lost {
			t.Fatalf("%s: restarts %g, lost edges %g dropped from %g, %g", step, r, l, restarts, lost)
		}
		if hr, hl, _ := shardHealth(); hr != r || hl != l {
			t.Fatalf("%s: shard_health reads %g restarts, %g lost edges; the counters read %g, %g", step, hr, hl, r, l)
		}
		restarts, lost = r, l
	}

	// Pane 0 holds every edge at TS 1..500. A first batch drains cleanly so
	// the scratch rebuild has something to lose; no query runs before the
	// fault, since its snapshot would leave a clone to restore from.
	post(edges[:250]...)
	armServeFaults(t, 7, "engine.shard.drain:panic:times=1")
	post(edges[250:]...)
	fault.Disarm()
	check("live pane", "", true)
	engineDegraded("live pane", true)
	counters("live pane")
	if restarts != 1 || lost == 0 {
		t.Fatalf("live pane: restarts %g, lost edges %g; want 1 restart that lost edges", restarts, lost)
	}

	// TS 1500 rotates pane 0 out of the live engine: the window still
	// merges it, a 400-wide window (cut 1100) does not.
	post(graph.NewEdge(1000, 1001).At(1500))
	check("retired pane", "", true)
	check("retired pane", "?window=400", false)
	engineDegraded("retired pane", true)
	counters("retired pane")

	// TS 3000 moves the window past pane 0, which is pruned.
	post(graph.NewEdge(1000, 1002).At(3000))
	check("pruned pane", "", false)
	engineDegraded("pruned pane", false)
	counters("pruned pane")
}

// TestServeCheckpointFaultClasses: an injected persistence failure answers
// 503 + Retry-After (never 500), leaves no torn checkpoint file behind,
// and the previous checkpoint stays restorable.
func TestServeCheckpointFaultClasses(t *testing.T) {
	dir := t.TempDir()
	edges := gen.ErdosRenyi(60, 500, 17)
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 9, CheckpointDir: dir})
	resp := postEdges(t, ts.URL, edges[:250], false)
	resp.Body.Close()

	// A good checkpoint first: the file the faulted attempt must not damage.
	resp, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline checkpoint status = %d", resp.StatusCode)
	}
	first := decodeJSON[map[string]any](t, resp)
	firstPath := first["path"].(string)
	firstBytes, err := os.ReadFile(firstPath)
	if err != nil {
		t.Fatal(err)
	}

	resp = postEdges(t, ts.URL, edges[250:], false)
	resp.Body.Close()
	for _, point := range []string{"checkpoint.write", "checkpoint.fsync", "checkpoint.rename"} {
		armServeFaults(t, 7, point+":error:times=1")
		resp, err = http.Post(ts.URL+"/v1/checkpoint", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d (%s), want 503", point, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: no Retry-After", point)
		}
		fault.Disarm()

		// No torn artifacts: only completed .gpsc files and no leftovers.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".gpsc") {
				t.Fatalf("%s left a non-checkpoint artifact: %s", point, e.Name())
			}
		}
		// The pre-fault checkpoint is byte-identical.
		got, err := os.ReadFile(firstPath)
		if err != nil {
			t.Fatalf("%s clobbered the previous checkpoint: %v", point, err)
		}
		if !bytes.Equal(got, firstBytes) {
			t.Fatalf("%s modified the previous checkpoint", point)
		}
	}

	// With faults cleared the retry lands and covers everything.
	resp, err = http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	final := decodeJSON[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry checkpoint failed: %v", final)
	}
	if pos := uint64(final["position"].(float64)); pos != uint64(len(edges)) {
		t.Fatalf("retried checkpoint position = %d, want %d", pos, len(edges))
	}
	if _, err := os.Stat(filepath.Join(dir, filepath.Base(final["path"].(string)))); err != nil {
		t.Fatal(err)
	}
}
