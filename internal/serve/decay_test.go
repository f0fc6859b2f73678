package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps/internal/graph"
	"gps/internal/stream"
)

// timedTestEdges builds a small clustered, timestamped batch.
func timedTestEdges(n int) []graph.Edge {
	var out []graph.Edge
	ts := uint64(100)
	for i := 0; len(out) < n; i++ {
		u := graph.NodeID(i % 97)
		v := graph.NodeID((i*7 + 1) % 97)
		if u == v {
			continue
		}
		out = append(out, graph.NewEdgeAt(u, v, ts))
		ts += 3
	}
	return out
}

// TestServeDecayedEstimates covers the service end of forward decay: a
// server started with HalfLife ingests a timestamped (GPSB v2) stream and
// answers decayed estimates, with the decay fields surfaced in
// /v1/estimate and /v1/stats, and the decayed configuration surviving a
// checkpoint → restore boot.
func TestServeDecayedEstimates(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Capacity:      500,
		WeightName:    "triangle",
		Seed:          7,
		Shards:        2,
		HalfLife:      120,
		CheckpointDir: dir,
	})
	edges := timedTestEdges(400)
	resp := postEdges(t, ts.URL, edges, true)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()
	flushResp, err := http.Post(ts.URL+"/v1/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	flushResp.Body.Close()

	est := decodeJSON[map[string]any](t, mustGet(t, ts.URL+"/v1/estimate?max_stale=0s"))
	if est["decayed"] != true {
		t.Fatalf("estimate not decayed: %v", est)
	}
	if est["decay_half_life"].(float64) != 120 {
		t.Fatalf("decay_half_life = %v", est["decay_half_life"])
	}
	if est["decay_horizon"].(float64) <= 0 || est["decayed_edges"].(float64) <= 0 {
		t.Fatalf("decay fields missing: %v", est)
	}

	st := getStats(t, ts.URL)
	if st.Streams[0].HalfLife != 120 {
		t.Fatalf("stats half_life = %v", st.Streams[0].HalfLife)
	}
	if got := st.Metrics["gps_engine_decay_horizon"]; got <= 0 {
		t.Fatalf("stats decay horizon = %v", got)
	}

	// Persist and boot a second server from the checkpoint with *no*
	// -half-life flag: the checkpoint's decay configuration must win.
	ck, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ck.Body.Close()
	files, _ := os.ReadDir(dir)
	if len(files) == 0 {
		t.Fatal("no checkpoint written")
	}
	s.Close()
	_, ts2 := newTestServer(t, Config{
		Capacity:    999, // overridden by the checkpoint
		WeightName:  "uniform",
		Seed:        9,
		RestoreFrom: filepath.Join(dir, files[len(files)-1].Name()),
	})
	est2 := decodeJSON[map[string]any](t, mustGet(t, ts2.URL+"/v1/estimate?max_stale=0s"))
	if est2["decayed"] != true || est2["decay_half_life"].(float64) != 120 {
		t.Fatalf("restored server lost decay config: %v", est2)
	}
}

// TestServeSelfLoopPolicy pins the unified reader policy at the HTTP edge:
// bodies carrying self loops are accepted in both formats, the loops are
// skipped, and the skip counts surface in the response and /v1/stats.
func TestServeSelfLoopPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, WeightName: "uniform", Seed: 1, Shards: 1})

	// Text body with a self loop.
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain",
		strings.NewReader("1 2\n3 3\n2 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	body := decodeJSON[map[string]any](t, resp)
	if body["accepted"].(float64) != 2 || body["skipped_self_loops"].(float64) != 1 {
		t.Fatalf("text ingest response: %v", body)
	}

	// Binary body with a self loop (hand-built v1 records: 3-3 then 5-6).
	raw := append([]byte("GPSB\x01"), 0x03, 0x03, 0x05, 0x06)
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/x-gps-edges",
		strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	body = decodeJSON[map[string]any](t, resp)
	if body["accepted"].(float64) != 1 || body["skipped_self_loops"].(float64) != 1 {
		t.Fatalf("binary ingest response: %v", body)
	}

	if got := getStats(t, ts.URL).Metrics["gps_serve_self_loops_total"]; got != 2 {
		t.Fatalf("stats self loops = %v", got)
	}
}

// TestServeDecayOverflowGuard pins the admission guard: batches that would
// push the decayed sampler past the representable span (≈1000 half-lives
// past the landmark) are rejected with 400 instead of crashing the process
// when the boost overflows inside a shard goroutine.
func TestServeDecayOverflowGuard(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, WeightName: "uniform", Seed: 1, Shards: 1, HalfLife: 10})

	ok := postEdges(t, ts.URL, []graph.Edge{graph.NewEdgeAt(1, 2, 100)}, true)
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("in-range batch rejected: %d", ok.StatusCode)
	}
	ok.Body.Close()
	flush, err := http.Post(ts.URL+"/v1/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	flush.Body.Close()

	// 100 + 1000×10 = 10100 is the admissible ceiling; far beyond it → 400.
	far := postEdges(t, ts.URL, []graph.Edge{graph.NewEdgeAt(3, 4, 100_000)}, true)
	if far.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflow-range batch got %d, want 400", far.StatusCode)
	}
	far.Body.Close()

	// The server is still alive and serving.
	h := mustGet(t, ts.URL+"/healthz")
	if h.StatusCode != http.StatusOK {
		t.Fatalf("health after rejection: %d", h.StatusCode)
	}
	h.Body.Close()

	// Event times unrepresentably far *below* the landmark underflow to
	// zero weights — also rejected. Within one body both framings force
	// non-decreasing times, so the reachable path is cross-batch: a first
	// batch pins a high landmark, a later batch replays old events.
	_, tsU := newTestServer(t, Config{Capacity: 100, WeightName: "uniform", Seed: 1, Shards: 1, HalfLife: 10})
	pin := postEdges(t, tsU.URL, []graph.Edge{graph.NewEdgeAt(5, 6, 1_000_000)}, true)
	if pin.StatusCode != http.StatusAccepted {
		t.Fatalf("landmark-pinning batch got %d", pin.StatusCode)
	}
	pin.Body.Close()
	pf, err := http.Post(tsU.URL+"/v1/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	pf.Body.Close() // landmark is pinned once the pin batch has been routed
	under := postEdges(t, tsU.URL, []graph.Edge{graph.NewEdgeAt(7, 8, 1)}, true)
	if under.StatusCode != http.StatusBadRequest {
		t.Fatalf("below-landmark batch got %d, want 400", under.StatusCode)
	}
	under.Body.Close()

	// A timed stream cannot switch to untimed edges: the engine would stamp
	// clock positions incommensurate with the event-time landmark.
	sw := postEdges(t, ts.URL, []graph.Edge{graph.NewEdge(11, 12)}, true)
	if sw.StatusCode != http.StatusBadRequest {
		t.Fatalf("timed→untimed switch got %d, want 400", sw.StatusCode)
	}
	sw.Body.Close()

	// Mixed batches are rejected outright (text body: bare + timed rows).
	mixResp, err := http.Post(ts.URL+"/v1/ingest", "text/plain",
		strings.NewReader("21 22 500\n23 24 500\n"))
	if err != nil {
		t.Fatal(err)
	}
	if mixResp.StatusCode != http.StatusAccepted {
		t.Fatalf("uniformly timed text batch got %d", mixResp.StatusCode)
	}
	mixResp.Body.Close()

	// Untimed arrival-order decay is guarded by projected position too.
	_, ts2 := newTestServer(t, Config{Capacity: 100, WeightName: "uniform", Seed: 1, Shards: 1, HalfLife: 0.001})
	big := make([]graph.Edge, 0, 50)
	for i := 0; i < 50; i++ {
		big = append(big, graph.NewEdge(graph.NodeID(i), graph.NodeID(i+1000)))
	}
	resp := postEdges(t, ts2.URL, big, true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("untimed overflow batch got %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// And an untimed stream cannot start mixing in event times... via a
	// mixed batch (the only way to smuggle both shapes into one body).
	_, ts3 := newTestServer(t, Config{Capacity: 100, WeightName: "uniform", Seed: 1, Shards: 1, HalfLife: 100})
	mixed := []graph.Edge{graph.NewEdge(1, 2), graph.NewEdgeAt(3, 4, 50)}
	var body bytes.Buffer
	if err := stream.WriteEdgeList(&body, mixed); err != nil {
		t.Fatal(err)
	}
	mresp, err := http.Post(ts3.URL+"/v1/ingest", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	// The text reader's partial-column fallback already strips the mixed
	// timestamps, so this loads untimed and is accepted — the binary path
	// is where a truly mixed batch can arrive, and that is rejected.
	if mresp.StatusCode != http.StatusAccepted {
		t.Fatalf("text mixed batch (fallback-untimed) got %d", mresp.StatusCode)
	}
	mresp.Body.Close()
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
