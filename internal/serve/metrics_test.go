package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gps/internal/core"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/obs"
)

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// getStats fetches the /v1/stats document.
func getStats(t *testing.T, url string) statsDoc {
	t.Helper()
	doc := decodeJSON[statsDoc](t, mustGet(t, url+"/v1/stats"))
	if doc.SchemaVersion != 3 {
		t.Fatalf("schema_version = %d, want 3", doc.SchemaVersion)
	}
	return doc
}

// metricValue finds a sample line by its exact name (labels included) and
// returns its value.
func metricValue(scrape, name string) (float64, bool) {
	for _, line := range strings.Split(scrape, "\n") {
		// Split on the LAST space: route labels carry spaces ("POST /v1/ingest").
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || line[:cut] != name {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestServeMetricsFourLayers drives the full service — ingest, flush,
// estimate, checkpoint, one rejected request — and checks the /metrics
// exposition lints clean, covers every layer's namespace, and carries the
// activity just generated with values that agree with /v1/stats.
func TestServeMetricsFourLayers(t *testing.T) {
	edges := gen.ErdosRenyi(200, 2000, 3)
	s, ts := newTestServer(t, Config{Capacity: 512, Seed: 9, Shards: 2, CheckpointDir: t.TempDir()})

	if resp := postEdges(t, ts.URL, edges, true); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	flush(t, ts.URL)
	if resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=0s"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(ts.URL+"/v1/checkpoint", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// One guaranteed 400 so the error counter has something to count.
	if resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("not an edge\n")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad ingest status = %d, want 400", resp.StatusCode)
		}
	}

	scrape := scrapeMetrics(t, ts.URL)
	if _, _, err := obs.CheckExposition(strings.NewReader(scrape)); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, scrape)
	}
	for _, prefix := range []string{"gps_http_", "gps_serve_", "gps_engine_", "gps_core_", "gps_checkpoint_"} {
		if !strings.Contains(scrape, "\n"+prefix) && !strings.HasPrefix(scrape, prefix) {
			t.Fatalf("no %s* sample in /metrics:\n%s", prefix, scrape)
		}
	}

	value := func(name string) float64 {
		t.Helper()
		v, ok := metricValue(scrape, name)
		if !ok {
			t.Fatalf("metric %s not in scrape:\n%s", name, scrape)
		}
		return v
	}
	n := float64(len(edges))
	if got := value("gps_serve_edges_accepted_total"); got != n {
		t.Fatalf("edges_accepted = %g, want %g", got, n)
	}
	if got := value("gps_serve_edges_processed_total"); got != n {
		t.Fatalf("edges_processed = %g, want %g", got, n)
	}
	if got := value("gps_core_arrivals_total"); got != n {
		t.Fatalf("core arrivals = %g, want %g (snapshot covers the whole stream)", got, n)
	}
	if got := value("gps_core_reservoir_fill"); got != 512 {
		t.Fatalf("reservoir fill = %g, want 512 (stream overflows capacity)", got)
	}
	if got := value("gps_core_threshold"); got <= 0 {
		t.Fatalf("threshold = %g, want > 0 after overflow", got)
	}
	// accepts - evicts == fill, aggregated across shards through Merge.
	if a, e := value("gps_core_accepts_total"), value("gps_core_evicts_total"); a-e != 512 {
		t.Fatalf("accepts %g - evicts %g = %g, want reservoir fill 512", a, e, a-e)
	}
	if got := value("gps_engine_shards"); got != 2 {
		t.Fatalf("engine shards = %g, want 2", got)
	}
	if got := value("gps_serve_snapshot_forced_fresh_total"); got != 1 {
		t.Fatalf("forced_fresh = %g, want 1 (the max_stale=0 estimate)", got)
	}
	if got := value("gps_checkpoint_files_written_total"); got < 1 {
		t.Fatalf("checkpoint files written = %g, want >= 1", got)
	}
	if got := value(`gps_http_requests_total{route="POST /v1/ingest"}`); got != 2 {
		t.Fatalf("ingest requests = %g, want 2", got)
	}
	if got := value(`gps_http_errors_total{route="POST /v1/ingest"}`); got != 1 {
		t.Fatalf("ingest errors = %g, want 1 (the malformed body)", got)
	}
	if got := value(`gps_http_request_seconds_count{route="GET /v1/estimate"}`); got != 1 {
		t.Fatalf("estimate latency count = %g, want 1", got)
	}
	if got := value("gps_serve_snapshot_age_seconds_count"); got != 1 {
		t.Fatalf("snapshot age observations = %g, want 1 (one estimate served)", got)
	}
	if got := value("gps_serve_snapshot_estimate_seconds_count"); got != 1 {
		t.Fatalf("Algorithm 2 observations = %g, want 1 (one refresh computed estimates)", got)
	}

	// The same quantities through the JSON plane agree.
	st := getStats(t, ts.URL)
	if st.Metrics["gps_serve_edges_accepted_total"] != n || st.Streams[0].Shards != 2 || st.Streams[0].Capacity != 512 {
		t.Fatalf("stats disagree with metrics: %+v", st)
	}
	if st.PprofAddr != "" {
		t.Fatalf("pprof_addr = %q before SetPprofAddr", st.PprofAddr)
	}
	s.SetPprofAddr("127.0.0.1:4242")
	if st := getStats(t, ts.URL); st.PprofAddr != "127.0.0.1:4242" {
		t.Fatalf("pprof_addr = %q after SetPprofAddr", st.PprofAddr)
	}
}

// TestStatsIsMetricsView pins /v1/stats as a view of the registry: after
// an ingest, a flush and an estimate on every stream, its metrics hold
// exactly the non-bucket samples of a /metrics scrape taken right after,
// with equal values, on each engine shape and on a multi-stream server.
// Only the HTTP families and uptime differ, moved by the two requests
// themselves. The windowed server keeps every deletion in the live pane,
// where the hand-filled schema-2 document read 60 applied deletions
// against the 0 of gps_core_deletions_applied_total.
func TestStatsIsMetricsView(t *testing.T) {
	const dels = 60
	inserts := timedTestEdges(400)
	live := gen.ErdosRenyi(120, 200, 5)
	for i := range live {
		live[i] = live[i].At(uint64(i + 1))
	}
	for _, e := range live[:dels] {
		live = append(live, e.At(uint64(len(live)+1)).AsDeletion())
	}
	cases := []struct {
		name  string
		cfg   Config
		feeds map[string][]graph.Edge // stream ("" = default) → records
	}{
		{"plain", Config{Capacity: 64, Seed: 1, Shards: 2}, map[string][]graph.Edge{"": inserts}},
		{"decayed", Config{Capacity: 64, Seed: 1, Shards: 2, HalfLife: 50}, map[string][]graph.Edge{"": inserts}},
		{"windowed", Config{Capacity: 512, Seed: 1, Shards: 2, Window: 1000}, map[string][]graph.Edge{"": live}},
		{"three streams", Config{Capacity: 64, Seed: 1, Shards: 2, Streams: []StreamSpec{
			{Name: "d", HalfLife: 50},
			{Name: "w", Window: 800, PaneWidth: 200},
		}}, map[string][]graph.Edge{"": inserts, "d": inserts, "w": inserts}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, c.cfg)
			for name, edges := range c.feeds {
				resp := postTo(t, ts.URL, name, edges)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("ingest %q: status %d", name, resp.StatusCode)
				}
				flushStream(t, ts.URL, name)
				resp = mustGet(t, streamURL(ts.URL, "/v1/estimate?max_stale=0s", name))
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("estimate %q: status %d", name, resp.StatusCode)
				}
			}
			// A shard consumer counts its last wakeup and park after
			// publishing the drained head a flush waits on, so the ring
			// counters may still move once; compare until they settle.
			var diffs []string
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				stats := getStats(t, ts.URL).Metrics
				diffs = viewDiff(stats, scrapeValues(t, scrapeMetrics(t, ts.URL)))
				if len(diffs) == 0 {
					if c.name == "windowed" && (stats["gps_serve_deletion_records_total"] != dels || stats["gps_core_deletions_applied_total"] != 0) {
						t.Fatalf("live-pane deletions: %g records, %g applied; want %d and 0 (no pane retired)",
							stats["gps_serve_deletion_records_total"], stats["gps_core_deletions_applied_total"], dels)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("/v1/stats metrics differ from /metrics:\n%s", strings.Join(diffs, "\n"))
				}
			}
		})
	}
}

// scrapeValues parses a /metrics scrape into its samples other than
// histogram buckets, keyed by name with labels.
func scrapeValues(t *testing.T, scrape string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	buckets := "" // "<family>_bucket{" while inside a histogram family
	for _, line := range strings.Split(scrape, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			buckets = ""
			if f[3] == "histogram" {
				buckets = f[2] + "_bucket{"
			}
		}
		if line == "" || strings.HasPrefix(line, "#") || (buckets != "" && strings.HasPrefix(line, buckets)) {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

// viewDiff lists where the stats metrics and a scrape disagree, ignoring
// the values the two requests themselves move.
func viewDiff(stats, scrape map[string]float64) []string {
	var diffs []string
	for name, v := range scrape {
		got, ok := stats[name]
		switch {
		case !ok:
			diffs = append(diffs, name+": not in /v1/stats")
		case got != v && !strings.HasPrefix(name, "gps_http_") && name != "gps_serve_uptime_seconds":
			diffs = append(diffs, fmt.Sprintf("%s: /v1/stats %v, /metrics %v", name, got, v))
		}
	}
	for name := range stats {
		if _, ok := scrape[name]; !ok {
			diffs = append(diffs, name+": not in /metrics")
		}
	}
	sort.Strings(diffs)
	return diffs
}

// TestMetricsTypeGolden pins the full family catalog — names and types —
// against a golden file at a fixed configuration. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/serve -run TypeGolden
func TestMetricsTypeGolden(t *testing.T) {
	s, err := NewServer(Config{Capacity: 64, Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	got := strings.Join(types, "\n") + "\n"
	const golden = "testdata/metrics_types.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metric catalog drifted from %s (UPDATE_GOLDEN=1 to accept):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRequestIDAndLogging checks the middleware's side channel: every
// response carries a unique X-Request-Id, and with LogRequests each request
// produces one key=value line naming that id, the route and the status.
func TestRequestIDAndLogging(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{Capacity: 64, Seed: 1, Shards: 1, LogRequests: true, LogWriter: &logBuf})

	idPat := regexp.MustCompile(`^[0-9a-f]{8}-[0-9]{6}$`)
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		resp := mustGet(t, ts.URL+"/healthz")
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if !idPat.MatchString(id) {
			t.Fatalf("X-Request-Id = %q, want prefix-seq form", id)
		}
		if ids[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		ids[id] = true
	}
	resp := mustGet(t, ts.URL+"/v1/estimate?max_stale=bogus")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad max_stale status = %d", resp.StatusCode)
	}

	log := logBuf.String()
	lines := strings.Split(strings.TrimSuffix(log, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d log lines, want 4:\n%s", len(lines), log)
	}
	for id := range ids {
		if !strings.Contains(log, "id="+id) {
			t.Fatalf("request %s not logged:\n%s", id, log)
		}
	}
	if !strings.Contains(log, `route="GET /healthz" status=200`) {
		t.Fatalf("healthz line malformed:\n%s", log)
	}
	if !strings.Contains(log, `route="GET /v1/estimate" status=400`) {
		t.Fatalf("estimate error line malformed:\n%s", log)
	}
}

// syncBuffer is a goroutine-safe log sink (handlers write concurrently).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMetricsScrapeUnderLoad hammers ingest, queries and /metrics scrapes
// concurrently — the race detector's view of the scrape path — then checks
// the final scrape still lints and the ingest counters add up. A producer
// refused with 503 retries after Retry-After, as clients do.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 256, Seed: 2, Shards: 2})

	const producers, batches, batchEdges = 4, 40, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				base := uint64(p*batches+b) * batchEdges
				edges := make([]graph.Edge, batchEdges)
				for i := range edges {
					u := base + uint64(i)
					edges[i] = graph.NewEdge(graph.NodeID(u), graph.NodeID(u+1000000))
				}
				var body bytes.Buffer
				for _, e := range edges {
					fmt.Fprintf(&body, "%d %d\n", e.U, e.V)
				}
				for {
					resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", bytes.NewReader(body.Bytes()))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusServiceUnavailable {
						secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
						if err != nil {
							t.Errorf("503 with Retry-After %q", resp.Header.Get("Retry-After"))
							return
						}
						time.Sleep(time.Duration(secs) * time.Second)
						continue
					}
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("ingest status = %d", resp.StatusCode)
						return
					}
					break
				}
			}
		}(p)
	}
	for sc := 0; sc < 2; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				scrape := scrapeMetrics(t, ts.URL)
				if _, _, err := obs.CheckExposition(strings.NewReader(scrape)); err != nil {
					t.Errorf("mid-load scrape fails lint: %v", err)
					return
				}
				resp, err := http.Get(ts.URL + "/v1/estimate?max_stale=1ms")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	flush(t, ts.URL)

	scrape := scrapeMetrics(t, ts.URL)
	if _, _, err := obs.CheckExposition(strings.NewReader(scrape)); err != nil {
		t.Fatalf("final scrape fails lint: %v", err)
	}
	want := float64(producers * batches * batchEdges)
	if got, _ := metricValue(scrape, "gps_serve_edges_accepted_total"); got != want {
		t.Fatalf("edges_accepted = %g, want %g", got, want)
	}
	if got, _ := metricValue(scrape, "gps_serve_edges_processed_total"); got != want {
		t.Fatalf("edges_processed = %g, want %g", got, want)
	}
}

// TestSnapshotEstimateHistogram checks what the Algorithm 2 histogram
// times: a refresh that computes estimates is observed once, and a refresh
// that reuses them (only duplicates reached the sampler) is not observed.
func TestSnapshotEstimateHistogram(t *testing.T) {
	s, err := core.NewSampler(core.Config{Capacity: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.ProcessBatch(gen.ErdosRenyi(50, 200, 4))
	// The position runs ahead of the sampler's arrivals, as duplicate
	// edges make it, so every forced-fresh query refreshes.
	c := newSnapshotCache(func() (*core.Sampler, error) { return s, nil },
		func() uint64 { return s.Arrivals() + 1 }, nil)
	for i, want := range []struct{ estimates, reused uint64 }{{1, 0}, {1, 1}} {
		if _, _, err := c.get(0, 0); err != nil {
			t.Fatal(err)
		}
		if got := c.met.estimate.Count(); got != want.estimates {
			t.Fatalf("query %d: %d Algorithm 2 observations, want %d", i, got, want.estimates)
		}
		if got := c.met.estReuse.Value(); got != want.reused {
			t.Fatalf("query %d: %d estimate reuses, want %d", i, got, want.reused)
		}
	}
}
