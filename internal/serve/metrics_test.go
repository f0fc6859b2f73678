package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

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
	if obs.Enabled {
		// accepts - evicts == fill, aggregated across shards through Merge.
		if a, e := value("gps_core_accepts_total"), value("gps_core_evicts_total"); a-e != 512 {
			t.Fatalf("accepts %g - evicts %g = %g, want reservoir fill 512", a, e, a-e)
		}
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
	if got := value("gps_serve_snapshot_estimate_seconds_count"); obs.Enabled && got != 1 {
		t.Fatalf("Algorithm 2 observations = %g, want 1 (one refresh computed estimates)", got)
	}

	// The same quantities through the JSON plane agree.
	st := decodeJSON[StatsV1](t, mustGet(t, ts.URL+"/v1/stats"))
	if st.SchemaVersion != 2 {
		t.Fatalf("schema_version = %d, want 2", st.SchemaVersion)
	}
	if float64(st.EdgesAccepted) != n || st.Shards != 2 || st.Capacity != 512 {
		t.Fatalf("stats disagree with metrics: %+v", st)
	}
	if st.PprofAddr != "" {
		t.Fatalf("pprof_addr = %q before SetPprofAddr", st.PprofAddr)
	}
	s.SetPprofAddr("127.0.0.1:4242")
	if st := decodeJSON[StatsV1](t, mustGet(t, ts.URL+"/v1/stats")); st.PprofAddr != "127.0.0.1:4242" {
		t.Fatalf("pprof_addr = %q after SetPprofAddr", st.PprofAddr)
	}
}

// TestStatsMetricsPartition pins the namespace contract: every family the
// registry serves is classified in exactly one of metricsPartition's two
// lists. Adding a metric without deciding whether /v1/stats covers it
// fails here.
func TestStatsMetricsPartition(t *testing.T) {
	configs := map[string]Config{
		"plain":    {Capacity: 64, Seed: 1, Shards: 2},
		"decayed":  {Capacity: 64, Seed: 1, Shards: 2, HalfLife: 4},
		"windowed": {Capacity: 64, Seed: 1, Shards: 2, Window: 100, PaneWidth: 25},
	}
	for mode, cfg := range configs {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		covered, only := s.metricsPartition()
		classified := make(map[string]string, len(covered)+len(only))
		for _, name := range covered {
			classified[name] = "stats-covered"
		}
		for _, name := range only {
			if prev, dup := classified[name]; dup {
				t.Fatalf("%s: %s in both namespaces (%s and metrics-only)", mode, name, prev)
			}
			classified[name] = "metrics-only"
		}
		fams := s.Metrics().Families()
		for _, name := range fams {
			if _, ok := classified[name]; !ok {
				t.Errorf("%s: family %s served but unclassified", mode, name)
			}
			delete(classified, name)
		}
		for name := range classified {
			t.Errorf("%s: %s classified but not in the registry", mode, name)
		}
		s.Close()
	}
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
// the final scrape still lints and the ingest counters add up.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 256, Seed: 2, Shards: 2, QueueDepth: 1024})

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
				resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", &body)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("ingest status = %d", resp.StatusCode)
					return
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
	if !obs.Enabled {
		t.Skip("timers are compiled out in gps_noobs builds")
	}
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
