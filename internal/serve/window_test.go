package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
)

// turnstileStream builds a timed turnstile stream over deduplicated base
// edges: insert at TS = position+1, with every 7th position also deleting
// the edge inserted lag positions earlier. Returns the records, the
// surviving timed edges (the ground-truth graph), and the deletion count.
func turnstileStream(base []graph.Edge, lag int) (records, survivors []graph.Edge, dels uint64) {
	seen := map[uint64]bool{}
	var uniq []graph.Edge
	for _, e := range base {
		if !seen[e.Key()] {
			seen[e.Key()] = true
			uniq = append(uniq, e)
		}
	}
	deleted := map[uint64]bool{}
	for i, e := range uniq {
		ts := uint64(i + 1)
		records = append(records, e.At(ts))
		if i%7 == 3 && i >= lag {
			victim := uniq[i-lag]
			if !deleted[victim.Key()] {
				deleted[victim.Key()] = true
				records = append(records, victim.At(ts).AsDeletion())
				dels++
			}
		}
	}
	for i, e := range uniq {
		if !deleted[e.Key()] {
			survivors = append(survivors, e.At(uint64(i+1)))
		}
	}
	return records, survivors, dels
}

// getEstimate fetches /v1/estimate with an optional ?window= parameter.
func getEstimate(t *testing.T, url, query string) estimateResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/estimate" + query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("estimate%s: %d %s", query, resp.StatusCode, b)
	}
	return decodeJSON[estimateResponse](t, resp)
}

// TestServeWindowedExact drives a windowed turnstile server end to end:
// with capacity above the stream size every inclusion probability is 1, so
// window queries must return the exact counts of the surviving in-window
// subgraph, both wire formats must carry deletions, and the turnstile and
// window telemetry must surface in /v1/stats and /metrics.
func TestServeWindowedExact(t *testing.T) {
	base := gen.HolmeKim(120, 4, 0.5, 0x3D0)
	records, survivors, dels := turnstileStream(base, 40)
	span := uint64(len(survivors) + int(dels)) // uniq inserts
	window := span / 2

	_, ts := newTestServer(t, Config{
		Capacity: int(span) + 50, Seed: 5, Shards: 2,
		Window: window, PaneWidth: span / 8,
	})
	// Half the stream over the text wire (del markers), half binary (GPSB
	// v3): both decoders must carry turnstile records into the engine.
	half := len(records) / 2
	for _, c := range []struct {
		chunk  []graph.Edge
		binary bool
	}{{records[:half], false}, {records[half:], true}} {
		resp := postEdges(t, ts.URL, c.chunk, c.binary)
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("ingest (binary=%v): %d %s", c.binary, resp.StatusCode, b)
		}
		resp.Body.Close()
	}
	flush(t, ts.URL)

	for _, q := range []struct {
		query string
		win   uint64
	}{{"", window}, {"?window=" + itoa(window/2), window / 2}} {
		est := getEstimate(t, ts.URL, q.query)
		wantEdges, wantTri, wantWedge := exact.Windowed(survivors, q.win, span)
		if est.Triangles != float64(wantTri) || est.Wedges != float64(wantWedge) || est.WindowEdges != float64(wantEdges) {
			t.Fatalf("window %d: estimate (tri=%v wedge=%v edges=%v), exact (%d, %d, %d)",
				q.win, est.Triangles, est.Wedges, est.WindowEdges, wantTri, wantWedge, wantEdges)
		}
		if est.Window != q.win || est.WindowHorizon != span || est.WindowPanes < 2 {
			t.Fatalf("window %d: geometry window=%d horizon=%d panes=%d", q.win, est.Window, est.WindowHorizon, est.WindowPanes)
		}
	}

	// Validation: oversized, malformed and zero windows are client errors.
	for _, bad := range []string{"?window=" + itoa(window+1), "?window=soon", "?window=0", "?window=-4"} {
		resp, err := http.Get(ts.URL + "/v1/estimate" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/estimate%s: %d, want 400", bad, resp.StatusCode)
		}
	}

	// Subgraph estimation needs a standing snapshot; windowed mode has none.
	resp, err := http.Post(ts.URL+"/v1/estimate/subgraph", "application/json",
		strings.NewReader(`{"edges":[[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("subgraph on windowed server: %d, want 400", resp.StatusCode)
	}

	// Turnstile and window telemetry: deletion records counted at ingest,
	// deletions applied by the retired panes, window geometry in stats and
	// /metrics.
	st := getStats(t, ts.URL)
	m := st.Metrics
	if got := m["gps_serve_deletion_records_total"]; got != float64(dels) {
		t.Fatalf("deletion records = %g, want %d", got, dels)
	}
	if m["gps_core_deletions_applied_total"] == 0 {
		t.Fatal("no deletion applied by the retired panes after turnstile ingest")
	}
	if st.Streams[0].Window != window || m["gps_window_panes"] < 2 || m["gps_window_horizon"] != float64(span) {
		t.Fatalf("window stats: window %d, panes %g, horizon %g", st.Streams[0].Window, m["gps_window_panes"], m["gps_window_horizon"])
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"gps_window_width", "gps_window_pane_width", "gps_core_deletions_applied_total", "gps_serve_deletion_records_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestServeWindowRequiresWindowedServer: ?window= on a plain server is a
// client error, not a silent full-graph answer.
func TestServeWindowRequiresWindowedServer(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 50, Seed: 1})
	resp, err := http.Get(ts.URL + "/v1/estimate?window=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?window= on plain server: %d, want 400", resp.StatusCode)
	}
}

// TestServeWindowedCheckpointRestartEquality is the windowed restart story:
// half a turnstile stream, POST /v1/checkpoint, boot a second server from
// the document (its geometry must win over the flags), finish the stream,
// and require window queries to equal those of an uninterrupted run.
func TestServeWindowedCheckpointRestartEquality(t *testing.T) {
	base := gen.HolmeKim(400, 5, 0.4, 0x77A)
	records, _, _ := turnstileStream(base, 60)
	span := uint64(len(base)) // upper bound; actual horizon is uniq count
	dir := t.TempDir()
	cfg := Config{Capacity: 200, WeightName: "triangle",
		Seed: 21, Shards: 2, Window: span / 2, PaneWidth: span / 10, CheckpointDir: dir}

	queryBoth := func(url string) (full, half estimateResponse) {
		full = getEstimate(t, url, "")
		half = getEstimate(t, url, "?window="+itoa(cfg.Window/2))
		// Wall-clock fields differ between servers by construction.
		full.SnapshotAgeMS, full.SnapshotUnixNS = 0, 0
		half.SnapshotAgeMS, half.SnapshotUnixNS = 0, 0
		return full, half
	}

	// Uninterrupted reference run.
	_, ref := newTestServer(t, cfg)
	postEdges(t, ref.URL, records, true).Body.Close()
	flush(t, ref.URL)
	wantFull, wantHalf := queryBoth(ref.URL)

	// First life: half the stream, then a durable checkpoint.
	cut := len(records) / 2
	_, ts1 := newTestServer(t, cfg)
	postEdges(t, ts1.URL, records[:cut], true).Body.Close()
	resp, err := http.Post(ts1.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := decodeJSON[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, ck)
	}
	if ck["position"].(float64) != float64(cut) {
		t.Fatalf("checkpoint position %v, want %d", ck["position"], cut)
	}

	// Second life: restore with deliberately wrong capacity/seed/geometry —
	// the checkpoint must win — then finish the stream.
	s2, ts2 := newTestServer(t, Config{Capacity: 7, Seed: 999, Window: 17,
		RestoreFrom: dir, CheckpointDir: dir})
	if s2.cfg.Capacity != cfg.Capacity || s2.cfg.Window != cfg.Window ||
		s2.cfg.PaneWidth != cfg.PaneWidth || s2.cfg.WeightName != "triangle" {
		t.Fatalf("restored config not taken from checkpoint: %+v", s2.cfg)
	}
	if _, pos := s2.Restored(); pos != uint64(cut) {
		t.Fatalf("restored position %d, want %d", pos, cut)
	}
	postEdges(t, ts2.URL, records[cut:], true).Body.Close()
	flush(t, ts2.URL)
	gotFull, gotHalf := queryBoth(ts2.URL)
	if gotFull != wantFull {
		t.Fatalf("full-window query diverged after restore:\n%+v\n%+v", gotFull, wantFull)
	}
	if gotHalf != wantHalf {
		t.Fatalf("half-window query diverged after restore:\n%+v\n%+v", gotHalf, wantHalf)
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }
