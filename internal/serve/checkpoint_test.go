package serve

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gps/internal/checkpoint"
	"gps/internal/gen"
)

// estimateBody fetches /v1/estimate with a zero staleness bound.
func estimateBody(t *testing.T, url string) estimateResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/estimate?max_stale=0s")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d", resp.StatusCode)
	}
	return decodeJSON[estimateResponse](t, resp)
}

// TestServeCheckpointRestartEquality is the service-level restart story:
// ingest half a stream, persist via POST /v1/checkpoint, boot a second
// server with RestoreFrom, ingest the remainder there, and require its
// estimates to equal byte-for-byte those of a server that saw the whole
// stream uninterrupted.
func TestServeCheckpointRestartEquality(t *testing.T) {
	edges := gen.HolmeKim(800, 5, 0.5, 0x1CE)
	dir := t.TempDir()
	cfg := Config{Capacity: 300, WeightName: "triangle",
		Seed: 44, Shards: 4, CheckpointDir: dir}

	// Uninterrupted reference run.
	_, ref := newTestServer(t, cfg)
	postEdges(t, ref.URL, edges, true).Body.Close()
	flush(t, ref.URL)
	want := estimateBody(t, ref.URL)

	// First life: half the stream, then a checkpoint.
	half := len(edges) / 2
	_, ts1 := newTestServer(t, cfg)
	postEdges(t, ts1.URL, edges[:half], true).Body.Close()
	resp, err := http.Post(ts1.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := decodeJSON[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, ck)
	}
	if ck["position"].(float64) != float64(half) {
		t.Fatalf("checkpoint position %v, want %d", ck["position"], half)
	}

	// Second life: restore (capacity/weight deliberately wrong in the
	// config — the checkpoint must win), finish the stream.
	s2, ts2 := newTestServer(t, Config{Capacity: 7, WeightName: "uniform", Seed: 999,
		RestoreFrom: dir, CheckpointDir: dir})
	if path, pos := s2.Restored(); pos != uint64(half) || path == "" {
		t.Fatalf("restored %q at %d, want position %d", path, pos, half)
	}
	if s2.cfg.Capacity != 300 || s2.cfg.WeightName != "triangle" || s2.cfg.Shards != 4 {
		t.Fatalf("restored config not taken from checkpoint: %+v", s2.cfg)
	}
	// An idle restored server must answer from the restored position
	// without a forced refresh loop (position counter resumed).
	mid := estimateBody(t, ts2.URL)
	if mid.Arrivals != uint64(half) {
		t.Fatalf("restored estimate arrivals %d, want %d", mid.Arrivals, half)
	}
	postEdges(t, ts2.URL, edges[half:], true).Body.Close()
	flush(t, ts2.URL)
	got := estimateBody(t, ts2.URL)

	if got.Triangles != want.Triangles || got.Wedges != want.Wedges ||
		got.TrianglesCI != want.TrianglesCI || got.WedgesCI != want.WedgesCI ||
		got.Threshold != want.Threshold || got.Arrivals != want.Arrivals ||
		got.SampledEdges != want.SampledEdges {
		t.Fatalf("restart-resumed estimates differ from uninterrupted run:\n%+v\nvs\n%+v", got, want)
	}
}

// TestServeCheckpointDownloadRoundTrip exercises the migration path:
// GET /v1/checkpoint streams a document a fresh server can boot from.
func TestServeCheckpointDownloadRoundTrip(t *testing.T) {
	edges := gen.HolmeKim(400, 4, 0.4, 0xD0)
	_, ts := newTestServer(t, Config{Capacity: 200, Seed: 3, Shards: 2})
	postEdges(t, ts.URL, edges, true).Body.Close()
	flush(t, ts.URL)
	want := estimateBody(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != checkpoint.ContentType {
		t.Fatalf("content type %q", ct)
	}
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "migrated"+checkpoint.FileExt)
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{RestoreFrom: path})
	got := estimateBody(t, ts2.URL)
	if got.Triangles != want.Triangles || got.Arrivals != want.Arrivals || got.Threshold != want.Threshold {
		t.Fatalf("migrated server differs: %+v vs %+v", got, want)
	}
}

// TestServePeriodicCheckpointAndRetention verifies the background
// checkpointer writes files and retention prunes them.
func TestServePeriodicCheckpointAndRetention(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Capacity: 100, Seed: 6,
		CheckpointDir: dir, CheckpointEvery: 10 * time.Millisecond, CheckpointKeep: 2})
	edges := gen.ErdosRenyi(100, 400, 9)
	postEdges(t, ts.URL, edges, true).Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.checkpointsWritten.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("periodic checkpointer wrote only %d files", s.checkpointsWritten.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the checkpointer before inspecting the directory so pruning
	// cannot race the restore below (Close is idempotent; the test cleanup
	// calls it again harmlessly).
	ts.Close()
	s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), checkpoint.FileExt) {
			ckpts++
		}
	}
	if ckpts > 2 {
		t.Fatalf("retention kept %d checkpoints, want <= 2", ckpts)
	}
	latest, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{RestoreFrom: latest})
	got := estimateBody(t, ts2.URL)
	if got.Arrivals != uint64(len(edges)) {
		t.Fatalf("latest periodic checkpoint covers %d arrivals, want %d", got.Arrivals, len(edges))
	}
}

// TestServeCheckpointWithoutDir pins the configuration errors.
func TestServeCheckpointWithoutDir(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 10, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint without dir: %d", resp.StatusCode)
	}
	if _, err := NewServer(Config{Capacity: 10, RestoreFrom: filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("restore from missing path succeeded")
	}
}
