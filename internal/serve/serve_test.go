package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/stream"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postEdges(t *testing.T, url string, edges []graph.Edge, binary bool) *http.Response {
	t.Helper()
	var body bytes.Buffer
	contentType := "text/plain"
	if binary {
		if err := stream.WriteBinary(&body, edges); err != nil {
			t.Fatal(err)
		}
		contentType = stream.BinaryContentType
	} else {
		if err := stream.WriteEdgeList(&body, edges); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url+"/v1/ingest", contentType, &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func flush(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("flush: %d %s", resp.StatusCode, b)
	}
}

// TestServeEndToEndExact ingests a full graph in both wire formats and
// checks the estimate endpoint returns the exact triangle/wedge counts:
// with uniform weights and capacity above the edge count the snapshot holds
// every edge, so Algorithm 2 degenerates to exact counting.
func TestServeEndToEndExact(t *testing.T) {
	edges := gen.ErdosRenyi(150, 1200, 7)
	truth := exact.Count(graph.BuildStatic(edges))
	for _, binary := range []bool{true, false} {
		_, ts := newTestServer(t, Config{Capacity: len(edges) + 10, Seed: 5})
		resp := postEdges(t, ts.URL, edges, binary)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
		acc := decodeJSON[map[string]any](t, resp)
		if int(acc["accepted"].(float64)) != len(edges) {
			t.Fatalf("accepted = %v, want %d", acc["accepted"], len(edges))
		}
		flush(t, ts.URL)

		resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
		if err != nil {
			t.Fatal(err)
		}
		est := decodeJSON[estimateResponse](t, resp)
		if est.Arrivals != uint64(len(edges)) || est.SampledEdges != len(edges) {
			t.Fatalf("arrivals=%d sampled=%d, want %d", est.Arrivals, est.SampledEdges, len(edges))
		}
		if est.Triangles != float64(truth.Triangles) || est.Wedges != float64(truth.Wedges) {
			t.Fatalf("binary=%v: estimate (%.0f, %.0f) != exact (%d, %d)",
				binary, est.Triangles, est.Wedges, truth.Triangles, truth.Wedges)
		}
	}
}

// TestServeSubgraphEstimate checks the generic Horvitz-Thompson query
// endpoint: with everything sampled at probability 1 a present subgraph
// estimates to 1 and an absent one to 0.
func TestServeSubgraphEstimate(t *testing.T) {
	edges := []graph.Edge{
		graph.NewEdge(1, 2), graph.NewEdge(2, 3), graph.NewEdge(1, 3),
		graph.NewEdge(3, 4),
	}
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 2})
	postEdges(t, ts.URL, edges, true).Body.Close()
	flush(t, ts.URL)

	query := func(body string) map[string]any {
		resp, err := http.Post(ts.URL+"/v1/estimate/subgraph?max_stale=0s", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("subgraph: %d %s", resp.StatusCode, b)
		}
		return decodeJSON[map[string]any](t, resp)
	}
	if got := query(`{"edges": [[1,2],[2,3],[1,3]]}`)["estimate"].(float64); got != 1 {
		t.Fatalf("present triangle estimate = %v, want 1", got)
	}
	if got := query(`{"edges": [[1,2],[2,9]]}`)["estimate"].(float64); got != 0 {
		t.Fatalf("absent subgraph estimate = %v, want 0", got)
	}

	for _, bad := range []string{`{"edges": []}`, `{"edges": [[4,4]]}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/estimate/subgraph", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServeBackpressure wedges the ingest loop in its first batch with a
// one-shot ring-publish delay, overfills the 64-batch queue behind it, and
// checks overflow turns into 503 with Retry-After rather than blocking or
// buffering without bound — and that every batch acknowledged with 202
// still reaches the sampler once the loop resumes.
func TestServeBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 3})
	armServeFaults(t, 1, "engine.ring.publish:latency:delay=1s,times=1")

	edges := gen.ErdosRenyi(50, 100, 1)
	accepted := 0
	got503 := false
	for i := 0; i < 3*queueBatches && !got503; i++ {
		resp := postEdges(t, ts.URL, edges, true)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusServiceUnavailable:
			got503 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
		default:
			t.Fatalf("unexpected ingest status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !got503 {
		t.Fatalf("a wedged queue of %d batches never produced a 503 after %d batches", queueBatches, 3*queueBatches)
	}
	if accepted < queueBatches {
		t.Fatalf("503 after %d accepted batches, want at least the %d the queue holds", accepted, queueBatches)
	}
	flush(t, ts.URL)
	scrape := scrapeMetrics(t, ts.URL)
	if got, _ := metricValue(scrape, "gps_serve_edges_processed_total"); got != float64(accepted*len(edges)) {
		t.Fatalf("edges processed %g, want the %d accepted", got, accepted*len(edges))
	}
}

// TestServePendingEdgeBound checks the volume-based backpressure: a tiny
// MaxPendingEdges rejects a batch even when the batch-count queue has room.
func TestServePendingEdgeBound(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 3, MaxPendingEdges: 50})
	resp := postEdges(t, ts.URL, gen.ErdosRenyi(50, 100, 1), true)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("100-edge batch over a 50-edge bound: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestServeBodyTooLarge checks oversized ingest bodies get 413, not 400 —
// in both wire formats, with a declared Content-Length (rejected upfront)
// and chunked (the limit trips mid-parse, usually splitting a record, so
// the 413 must win over the truncation-induced parse error).
func TestServeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 1, MaxBodyBytes: 64})
	edges := gen.ErdosRenyi(100, 500, 2)
	resp := postEdges(t, ts.URL, edges, true)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary body: status %d, want 413", resp.StatusCode)
	}
	for name, payload := range map[string]func() []byte{
		"text": func() []byte {
			var buf bytes.Buffer
			if err := stream.WriteEdgeList(&buf, edges); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		"binary": func() []byte {
			var buf bytes.Buffer
			if err := stream.WriteBinary(&buf, edges); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
	} {
		// io.MultiReader hides the length, forcing chunked encoding, so the
		// server cannot reject from Content-Length alone.
		req, err := http.NewRequest("POST", ts.URL+"/v1/ingest", io.MultiReader(bytes.NewReader(payload())))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized chunked %s body: status %d, want 413", name, resp.StatusCode)
		}
	}
}

// TestServeConcurrentClients runs ingestion and eight query clients in
// parallel (run under -race). Every estimate must correspond to a batch
// boundary, and arrivals must be non-decreasing per client (snapshots can
// only move forward).
func TestServeConcurrentClients(t *testing.T) {
	const batch = 200
	edges := gen.ErdosRenyi(400, 6000, 11)
	_, ts := newTestServer(t, Config{Capacity: 500, Seed: 9, Shards: 4})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var lastArrivals uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
				if err != nil {
					t.Error(err)
					return
				}
				est := decodeJSON[estimateResponse](t, resp)
				if est.Arrivals%batch != 0 && est.Arrivals != uint64(len(edges)) {
					t.Errorf("client %d: estimate at arrivals %d is not a batch boundary", id, est.Arrivals)
					return
				}
				if est.Arrivals < lastArrivals {
					t.Errorf("client %d: arrivals went backwards: %d -> %d", id, lastArrivals, est.Arrivals)
					return
				}
				lastArrivals = est.Arrivals
			}
		}(c)
	}
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		for {
			resp := postEdges(t, ts.URL, edges[lo:hi], true)
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusServiceUnavailable {
				t.Fatalf("ingest status %d", code)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	wg.Wait()
	flush(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	est := decodeJSON[estimateResponse](t, resp)
	if est.Arrivals != uint64(len(edges)) {
		t.Fatalf("final arrivals = %d, want %d", est.Arrivals, len(edges))
	}
}

// TestServeCloseProcessesAcknowledged races concurrent ingest posts
// against Close and verifies the 202 contract: every batch acknowledged
// with 202 has reached the sampler by the time Close returns — no silent
// drops (run under -race).
func TestServeCloseProcessesAcknowledged(t *testing.T) {
	edges := gen.ErdosRenyi(200, 2000, 5)
	s, err := NewServer(Config{Capacity: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const batch = 100
	var (
		wg       sync.WaitGroup
		accepted atomic.Uint64
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for lo := c * 500; lo < (c+1)*500; lo += batch {
				resp := postEdges(t, ts.URL, edges[lo:lo+batch], true)
				if resp.StatusCode == http.StatusAccepted {
					accepted.Add(batch)
				} else if resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("ingest status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(c)
	}
	// Close while the posters are mid-flight.
	time.Sleep(time.Millisecond)
	s.Close()
	wg.Wait()
	if got, want := s.def.edgesProcessed.Load(), accepted.Load(); got != want {
		t.Fatalf("processed %d edges but acknowledged %d — 202'd batches were dropped", got, want)
	}
	if pending := s.def.pendingEdges.Load(); pending != 0 {
		t.Fatalf("pending_edges = %d after Close, want 0", pending)
	}
}

// TestServeStalenessCache checks the snapshot-cache contract: repeated
// queries on an unchanged stream reuse one snapshot (even forced-fresh —
// the stream position proves it current), and flush invalidates the cache
// so flush-then-estimate is read-your-writes at any staleness bound.
func TestServeStalenessCache(t *testing.T) {
	edges := gen.ErdosRenyi(100, 800, 13)
	_, ts := newTestServer(t, Config{Capacity: 200, Seed: 1, MaxStaleness: time.Hour})
	postEdges(t, ts.URL, edges[:400], true).Body.Close()
	flush(t, ts.URL)

	get := func(q string) estimateResponse {
		resp, err := http.Get(ts.URL + "/v1/estimate" + q)
		if err != nil {
			t.Fatal(err)
		}
		return decodeJSON[estimateResponse](t, resp)
	}
	first := get("")
	if first.Arrivals != 400 {
		t.Fatalf("first arrivals = %d, want 400", first.Arrivals)
	}
	// Unchanged stream: both a default-bound query and a forced-fresh one
	// reuse the identical snapshot (position check makes the rebuild free).
	if cached := get(""); cached.SnapshotUnixNS != first.SnapshotUnixNS {
		t.Fatalf("cached query refreshed on idle stream: snap %d vs %d",
			cached.SnapshotUnixNS, first.SnapshotUnixNS)
	}
	if forced := get("?max_stale=0s"); forced.SnapshotUnixNS != first.SnapshotUnixNS {
		t.Fatalf("forced-fresh rebuilt an identical snapshot on idle stream: snap %d vs %d",
			forced.SnapshotUnixNS, first.SnapshotUnixNS)
	}
	// Read-your-writes: ingest + flush invalidates, so even the generous
	// default staleness bound sees the new edges.
	postEdges(t, ts.URL, edges[400:], true).Body.Close()
	flush(t, ts.URL)
	if after := get(""); after.Arrivals != uint64(len(edges)) {
		t.Fatalf("post-flush arrivals = %d, want %d (stale read after flush)", after.Arrivals, len(edges))
	}
	// Bad duration is a 400.
	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad max_stale: status %d, want 400", resp.StatusCode)
	}
}

// TestServeWeightNameSelectsWeight pins Config's one weight knob: a server
// given only WeightName "triangle" samples by triangles, estimating bit for
// bit what an engine fed the same stream with core.TriangleWeight does, and
// NewServer refuses a name it cannot resolve.
func TestServeWeightNameSelectsWeight(t *testing.T) {
	edges := gen.HolmeKim(600, 5, 0.5, 0x3E1)
	_, ts := newTestServer(t, Config{Capacity: 300, WeightName: "triangle", Seed: 21, Shards: 2})
	postEdges(t, ts.URL, edges, true).Body.Close()
	flush(t, ts.URL)
	got := estimateBody(t, ts.URL)

	ref, err := engine.NewParallel(core.Config{Capacity: 300, Weight: core.TriangleWeight, Seed: 21}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.ProcessBatch(edges)
	snap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := core.EstimatePost(snap)
	if got.Triangles != want.Triangles || got.Wedges != want.Wedges || got.Threshold != snap.Threshold() {
		t.Fatalf("served (triangles %v, wedges %v, z* %v), want the triangle-weighted engine's (%v, %v, %v)",
			got.Triangles, got.Wedges, got.Threshold, want.Triangles, want.Wedges, snap.Threshold())
	}

	for _, name := range []string{"triangel", "adaptive"} {
		if s, err := NewServer(Config{Capacity: 10, WeightName: name}); err == nil {
			s.Close()
			t.Errorf("NewServer accepted weight %q", name)
		}
	}
}

// TestServeStatsAndHealth smoke-checks the observability endpoints.
func TestServeStatsAndHealth(t *testing.T) {
	edges := gen.ErdosRenyi(60, 300, 17)
	s, ts := newTestServer(t, Config{Capacity: 100, Seed: 4, WeightName: "triangle"})
	postEdges(t, ts.URL, edges, false).Body.Close()
	flush(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st := getStats(t, ts.URL)
	m := st.Metrics
	if st.Streams[0].Weight != "triangle" {
		t.Errorf("stats weight = %q", st.Streams[0].Weight)
	}
	if got := m["gps_serve_edges_processed_total"]; got != float64(len(edges)) {
		t.Errorf("edges processed = %g, want %d", got, len(edges))
	}
	if got := m["gps_core_arrivals_total"]; got != float64(len(edges)) {
		t.Errorf("snapshot arrivals = %g, want %d", got, len(edges))
	}
	// Ring gauges: flush drained the data plane, so backlog and every shard
	// depth are zero, and the shard epochs account for every routed edge.
	if got := m["gps_engine_ring_backlog"]; got != 0 {
		t.Errorf("ring backlog = %g, want 0 after flush", got)
	}
	if got := m["gps_engine_ring_capacity"]; got < 1 {
		t.Errorf("ring capacity = %g, want >= 1", got)
	}
	if _, ok := m["gps_engine_ring_stalls_total"]; !ok {
		t.Errorf("ring stalls missing: %v", m)
	}
	shards := st.Streams[0].Shards
	var routed float64
	for i := 0; i < shards; i++ {
		shard := `{shard="` + strconv.Itoa(i) + `"}`
		depth, ok := m["gps_engine_ring_depth"+shard]
		if !ok || depth != 0 {
			t.Errorf("ring depth%s = %g (present %v), want 0 after flush", shard, depth, ok)
		}
		epoch, ok := m["gps_engine_shard_epoch"+shard]
		if !ok {
			t.Fatalf("shard epoch%s missing", shard)
		}
		routed += epoch
	}
	if routed != float64(len(edges)) {
		t.Errorf("shard epochs sum = %g, want %d routed edges", routed, len(edges))
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	s.Close()
	s.Close() // idempotent
}

// TestServeRejectsBadIngest checks malformed bodies turn into 400s.
func TestServeRejectsBadIngest(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 10, Seed: 1})
	for name, body := range map[string]struct {
		contentType string
		payload     string
	}{
		"bad text":             {"text/plain", "1 notanumber\n"},
		"truncated binary":     {stream.BinaryContentType, "GPSB\x01\x05"},
		"binary with bad type": {stream.BinaryContentType, "0 1\n"},
	} {
		resp, err := http.Post(ts.URL+"/v1/ingest", body.contentType, strings.NewReader(body.payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestWeightByName covers the CLI name mapping.
func TestWeightByName(t *testing.T) {
	for _, ok := range []string{"", "uniform", "triangle", "adjacency"} {
		if _, err := WeightByName(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
	for _, bad := range []string{"adaptive", "nope"} {
		if _, err := WeightByName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
