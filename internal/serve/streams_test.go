package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/stream"
)

// streamURL appends the ?stream= selector ("" = default) to a path that may
// already carry a query string.
func streamURL(base, path, name string) string {
	if name == "" {
		return base + path
	}
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return base + path + sep + "stream=" + name
}

// postTo posts a binary batch to one named stream.
func postTo(t *testing.T, base, name string, edges []graph.Edge) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := stream.WriteBinary(&body, edges); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(streamURL(base, "/v1/ingest", name), stream.BinaryContentType, &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func flushStream(t *testing.T, base, name string) {
	t.Helper()
	resp, err := http.Post(streamURL(base, "/v1/flush", name), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("flush stream %q: %d %s", name, resp.StatusCode, b)
	}
}

func estimateStream(t *testing.T, base, name, query string) estimateResponse {
	t.Helper()
	url := streamURL(base, "/v1/estimate"+query, name)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("estimate %s: %d %s", url, resp.StatusCode, b)
	}
	return decodeJSON[estimateResponse](t, resp)
}

func createStream(t *testing.T, base, name, specJSON string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/streams/"+name, "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func deleteStream(t *testing.T, base, name string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/streams/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStreamRegistryLifecycle drives the registry end to end over HTTP:
// create, list, per-stream ingest/flush/estimate isolation, delete, 404
// after delete, re-creation under the same name (which would panic on
// duplicate metric registration if deletion leaked labeled samples), and
// a deletion after shutdown.
func TestStreamRegistryLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1000, Seed: 3})

	resp := createStream(t, ts.URL, "alpha", `{"capacity": 500, "seed": 11}`)
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create alpha: %d %s", resp.StatusCode, b)
	}
	sum := decodeJSON[streamSummary](t, resp)
	if sum.Stream != "alpha" || sum.Capacity != 500 || sum.Default {
		t.Fatalf("create summary: %+v", sum)
	}
	// Duplicate create conflicts; so does shadowing the default stream.
	if resp := createStream(t, ts.URL, "alpha", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := createStream(t, ts.URL, "default", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("create default: %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := createStream(t, ts.URL, "bad*name", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name create: %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Distinct data per stream; each stream must answer from its own edges.
	defEdges := gen.ErdosRenyi(40, 120, 1)
	alphaEdges := gen.ErdosRenyi(25, 60, 2)
	for _, r := range []*http.Response{
		postTo(t, ts.URL, "", defEdges),
		postTo(t, ts.URL, "alpha", alphaEdges),
	} {
		if r.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(r.Body)
			t.Fatalf("ingest: %d %s", r.StatusCode, b)
		}
		r.Body.Close()
	}
	flushStream(t, ts.URL, "")
	flushStream(t, ts.URL, "alpha")
	defEst := estimateStream(t, ts.URL, "", "?max_stale=0")
	alphaEst := estimateStream(t, ts.URL, "alpha", "?max_stale=0")
	if defEst.Arrivals == alphaEst.Arrivals {
		t.Fatalf("streams share arrivals (%d): not isolated", defEst.Arrivals)
	}
	if got, want := int(alphaEst.Arrivals), distinctCount(alphaEdges); got != want {
		t.Fatalf("alpha arrivals %d, want %d distinct edges", got, want)
	}

	// Listing: default first, then alpha.
	lresp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	listing := decodeJSON[struct {
		Streams []streamSummary `json:"streams"`
	}](t, lresp)
	if len(listing.Streams) != 2 || listing.Streams[0].Stream != "default" ||
		!listing.Streams[0].Default || listing.Streams[1].Stream != "alpha" {
		t.Fatalf("listing: %+v", listing.Streams)
	}

	// Unknown stream selectors answer 404 on the data plane.
	resp = postTo(t, ts.URL, "ghost", defEdges)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest to unknown stream: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Delete alpha; its selector turns 404; default is untouched.
	dresp := deleteStream(t, ts.URL, "alpha")
	if dresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(dresp.Body)
		t.Fatalf("delete alpha: %d %s", dresp.StatusCode, b)
	}
	del := decodeJSON[map[string]any](t, dresp)
	if del["deleted"] != true || del["edges_processed"].(float64) != float64(len(alphaEdges)) {
		t.Fatalf("delete response: %v", del)
	}
	if resp := deleteStream(t, ts.URL, "alpha"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := deleteStream(t, ts.URL, "default"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delete default: %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp = postTo(t, ts.URL, "alpha", alphaEdges)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest after delete: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if est := estimateStream(t, ts.URL, "", "?max_stale=0"); est.Arrivals != defEst.Arrivals {
		t.Fatalf("default stream arrivals moved across alpha's deletion: %d != %d", est.Arrivals, defEst.Arrivals)
	}

	// Re-creation under the same name must not trip the registry's
	// duplicate-registration panic (deletion unregistered the labeled
	// samples) and starts from an empty sampler.
	if resp := createStream(t, ts.URL, "alpha", ""); resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("re-create alpha: %d %s", resp.StatusCode, b)
	} else {
		resp.Body.Close()
	}
	flushStream(t, ts.URL, "alpha")
	if est := estimateStream(t, ts.URL, "alpha", "?max_stale=0"); est.Arrivals != 0 {
		t.Fatalf("re-created stream carries %d arrivals, want 0", est.Arrivals)
	}

	// Close retires every stream, so a deletion after it answers 503.
	s.Close()
	if resp := deleteStream(t, ts.URL, "alpha"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delete after Close: %d, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

func distinctCount(edges []graph.Edge) int {
	seen := map[uint64]bool{}
	for _, e := range edges {
		seen[e.Key()] = true
	}
	return len(seen)
}

// TestStreamFairShareAdmission checks the apportioned MaxPendingEdges
// bound: with two live streams each stream's share is half the budget, so a
// tenant whose batch overflows its own share is 503'd with the pending-edge
// message while the other tenant's in-bound batch is admitted untouched.
func TestStreamFairShareAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1000, Seed: 3, MaxPendingEdges: 100})
	if resp := createStream(t, ts.URL, "b", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create b: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if share := s.pendingEdgeShare(); share != 50 {
		t.Fatalf("pendingEdgeShare = %d with 2 streams over 100, want 50", share)
	}

	// A's 60-edge batch exceeds its 50-edge share: rejected on arrival,
	// before any queueing (the check runs against the post-add pending sum).
	big := gen.ErdosRenyi(60, 60, 7)
	resp := postTo(t, ts.URL, "", big)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-share batch: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	msg := decodeJSON[map[string]string](t, resp)
	if msg["error"] != "ingest queue full (pending edge bound)" {
		t.Fatalf("reject message %q", msg["error"])
	}

	// B is unaffected: its in-share batch lands and is fully processed.
	small := gen.ErdosRenyi(20, 30, 8)
	resp = postTo(t, ts.URL, "b", small)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("in-share batch on b: %d %s", resp.StatusCode, b)
	}
	resp.Body.Close()
	flushStream(t, ts.URL, "b")
	if est := estimateStream(t, ts.URL, "b", "?max_stale=0"); est.Arrivals == 0 {
		t.Fatal("b processed nothing while a was being shed")
	}
	// And the saturating tenant's rejection left no pending-edge leak.
	if pending := s.def.pendingEdges.Load(); pending != 0 {
		t.Fatalf("default pending edges = %d after rejection, want 0", pending)
	}

	// Deleting b returns the whole budget to the survivor: the same batch
	// that was rejected now fits.
	if resp := deleteStream(t, ts.URL, "b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete b: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp = postTo(t, ts.URL, "", big)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("post-delete batch: %d %s (share=%d)", resp.StatusCode, b, s.pendingEdgeShare())
	}
	resp.Body.Close()
}

// TestStreamTimeModelCheck feeds each time model through both entry
// points, NewServer's default stream and POST /v1/streams/{name}, and
// requires the same verdict from each, and the same resolved time model
// where both accept it.
func TestStreamTimeModelCheck(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 3})
	for i, c := range []struct {
		name         string
		window, pane uint64
		halfLife     float64
		ok           bool
		wantPane     uint64 // resolved pane width when ok
	}{
		{name: "window with half-life", window: 100, halfLife: 10},
		{name: "pane without window", pane: 10},
		{name: "window narrower than pane", window: 10, pane: 20},
		{name: "pane 0 defaults to the window", window: 100, ok: true, wantPane: 100},
	} {
		s, err := NewServer(Config{Capacity: 100, Seed: 3, Window: c.window, PaneWidth: c.pane, HalfLife: c.halfLife})
		if (err == nil) != c.ok {
			t.Fatalf("%s: NewServer error %v, want ok=%v", c.name, err, c.ok)
		}
		if err == nil {
			eff := s.EffectiveConfig()
			s.Close()
			if eff.Window != c.window || eff.PaneWidth != c.wantPane || eff.HalfLife != c.halfLife {
				t.Fatalf("%s: NewServer resolved window %d pane %d half-life %g", c.name, eff.Window, eff.PaneWidth, eff.HalfLife)
			}
		}
		spec, _ := json.Marshal(StreamSpec{Window: c.window, PaneWidth: c.pane, HalfLife: c.halfLife})
		resp := createStream(t, ts.URL, fmt.Sprintf("s%d", i), string(spec))
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if c.ok || resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: create %d %s, want ok=%v", c.name, resp.StatusCode, b, c.ok)
			}
			continue
		}
		if !c.ok {
			resp.Body.Close()
			t.Fatalf("%s: create accepted a time model NewServer refused", c.name)
		}
		sum := decodeJSON[streamSummary](t, resp)
		if sum.Window != c.window || sum.PaneWidth != c.wantPane || sum.HalfLife != c.halfLife {
			t.Fatalf("%s: created stream resolved window %d pane %d half-life %g", c.name, sum.Window, sum.PaneWidth, sum.HalfLife)
		}
	}
}

// TestStreamConcurrentLifecycle hammers create/ingest/query/delete from
// concurrent goroutines — the registry's locking discipline (closeMu over
// the map + flags, metrics unregistration inside the critical section) is
// exactly what -race exercises here.
func TestStreamConcurrentLifecycle(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	_, ts := newTestServer(t, Config{Capacity: 500, Seed: 3, Shards: 2})

	edges := gen.ErdosRenyi(30, 60, 5)
	const workers = 4
	const rounds = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", w%2) // contend on two names across workers
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					resp := createStream(t, ts.URL, name, "")
					if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
						t.Errorf("create %s: %d", name, resp.StatusCode)
					}
					resp.Body.Close()
				case 1:
					resp := postTo(t, ts.URL, name, edges)
					switch resp.StatusCode {
					case http.StatusAccepted, http.StatusNotFound, http.StatusServiceUnavailable:
					default:
						t.Errorf("ingest %s: %d", name, resp.StatusCode)
					}
					resp.Body.Close()
				case 2:
					resp, err := http.Get(streamURL(ts.URL, "/v1/estimate", name))
					if err != nil {
						t.Error(err)
						continue
					}
					switch resp.StatusCode {
					case http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable:
					default:
						t.Errorf("estimate %s: %d", name, resp.StatusCode)
					}
					resp.Body.Close()
				case 3:
					resp := deleteStream(t, ts.URL, name)
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						t.Errorf("delete %s: %d", name, resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	// The default stream keeps serving throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp := postTo(t, ts.URL, "", edges)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("default ingest: %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	flushStream(t, ts.URL, "")
	if est := estimateStream(t, ts.URL, "", "?max_stale=0"); est.Arrivals == 0 {
		t.Fatal("default stream lost its data during the lifecycle storm")
	}

	// Every worker's last round creates its stream, so both names survive
	// the storm and their families, registered and unregistered throughout
	// it, carry stream labels in the final scrape, which must lint clean.
	scrape := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"s0", "s1"} {
		if !strings.Contains(scrape, `stream="`+name+`"`) {
			t.Fatalf("scrape has no %s-labelled sample:\n%s", name, scrape)
		}
	}
	if _, _, err := obs.CheckExposition(strings.NewReader(scrape)); err != nil {
		t.Fatalf("/metrics fails lint after the lifecycle storm: %v\n%s", err, scrape)
	}
}

// sseEvent is one decoded /v1/subscribe frame.
type sseEvent struct {
	event string
	data  estimateResponse
}

// readSSE decodes estimate events from an open SSE body onto a channel
// until the body closes.
func readSSE(t *testing.T, body io.Reader, out chan<- sseEvent) {
	sc := bufio.NewScanner(body)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
				t.Errorf("bad SSE data: %v", err)
				return
			}
		case line == "":
			if ev.event != "" {
				out <- ev
				ev = sseEvent{}
			}
		}
	}
	close(out)
}

// TestStreamSubscribeIsolation opens an SSE subscription on one stream,
// forces snapshot epochs on both it and a sibling, and checks the
// subscriber sees exactly its own stream's epochs — every one of them, in
// order, and none of the sibling's.
func TestStreamSubscribeIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1000, Seed: 3})
	if resp := createStream(t, ts.URL, "noise", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create noise: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("subscribe: %d %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type %q", ct)
	}
	events := make(chan sseEvent, 16)
	go readSSE(t, resp.Body, events)

	// Three epochs on the default stream, interleaved with noise epochs on
	// the sibling; every epoch is forced by a max_stale=0 estimate after new
	// distinct edges.
	var wantArrivals []uint64
	next := uint32(1)
	for round := 0; round < 3; round++ {
		var batch, noise []graph.Edge
		for i := 0; i < 5; i++ {
			batch = append(batch, graph.NewEdge(graph.NodeID(next), graph.NodeID(next+1)))
			noise = append(noise, graph.NewEdge(graph.NodeID(1000+next), graph.NodeID(1000+next+1)))
			next += 2
		}
		r := postTo(t, ts.URL, "", batch)
		r.Body.Close()
		r = postTo(t, ts.URL, "noise", noise)
		r.Body.Close()
		flushStream(t, ts.URL, "")
		flushStream(t, ts.URL, "noise")
		est := estimateStream(t, ts.URL, "", "?max_stale=0")
		_ = estimateStream(t, ts.URL, "noise", "?max_stale=0")
		wantArrivals = append(wantArrivals, est.Arrivals)
	}

	for i, want := range wantArrivals {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("SSE feed closed before epoch %d", i)
			}
			if ev.event != "estimate" {
				t.Fatalf("epoch %d: event %q, want estimate", i, ev.event)
			}
			if ev.data.Arrivals != want {
				t.Fatalf("epoch %d: arrivals %d, want %d (cross-stream leak or lost epoch)", i, ev.data.Arrivals, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no SSE event for epoch %d", i)
		}
	}
	select {
	case ev, ok := <-events:
		if ok {
			t.Fatalf("unexpected extra SSE event: %+v — sibling epochs leaked", ev)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

// TestMultiStreamCheckpointRestore takes a KindMulti checkpoint of three
// streams (plain default, plain named, windowed named), kills the server,
// restores a new one from the file and checks every stream comes back at
// its own position with its own configuration and estimates.
func TestMultiStreamCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(Config{Capacity: 1000, Seed: 3, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp := createStream(t, ts.URL, "beta", `{"capacity": 300, "seed": 9}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create beta: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := createStream(t, ts.URL, "win", `{"window": 64, "pane_width": 16, "capacity": 400}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create win: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	defEdges := gen.ErdosRenyi(40, 120, 1)
	betaEdges := gen.ErdosRenyi(30, 80, 2)
	var winEdges []graph.Edge
	for i, e := range gen.ErdosRenyi(25, 50, 3) {
		winEdges = append(winEdges, e.At(uint64(i+1)))
	}
	for _, in := range []struct {
		name  string
		edges []graph.Edge
	}{{"", defEdges}, {"beta", betaEdges}, {"win", winEdges}} {
		resp := postTo(t, ts.URL, in.name, in.edges)
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("ingest %q: %d %s", in.name, resp.StatusCode, b)
		}
		resp.Body.Close()
	}

	cresp, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(cresp.Body)
		t.Fatalf("checkpoint: %d %s", cresp.StatusCode, b)
	}
	ck := decodeJSON[map[string]any](t, cresp)
	wantPos := uint64(len(defEdges) + len(betaEdges) + len(winEdges))
	if got := uint64(ck["position"].(float64)); got != wantPos {
		t.Fatalf("checkpoint position %d, want summed %d", got, wantPos)
	}
	// A persisted ?stream= checkpoint is refused: files cover every stream.
	if resp, err := http.Post(ts.URL+"/v1/checkpoint?stream=beta", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("per-stream persisted checkpoint: %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	preDef := estimateStream(t, ts.URL, "", "?max_stale=0")
	preBeta := estimateStream(t, ts.URL, "beta", "?max_stale=0")
	preWin := estimateStream(t, ts.URL, "win", "")
	ts.Close()
	s.Close() // crash-equivalent for durability: only the checkpoint survives

	s2, err := NewServer(Config{
		Capacity: 7, Seed: 99, // deliberately wrong: per-stream restored config must win
		RestoreFrom: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()

	if path, pos := s2.Restored(); path == "" || pos != uint64(len(defEdges)) {
		t.Fatalf("restored path %q position %d, want default-stream position %d", path, pos, len(defEdges))
	}
	lresp, err := http.Get(ts2.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	listing := decodeJSON[struct {
		Streams []streamSummary `json:"streams"`
	}](t, lresp)
	if len(listing.Streams) != 3 {
		t.Fatalf("restored %d streams, want 3: %+v", len(listing.Streams), listing.Streams)
	}
	byName := map[string]streamSummary{}
	for _, sum := range listing.Streams {
		byName[sum.Stream] = sum
	}
	if byName["beta"].Capacity != 300 {
		t.Fatalf("beta restored capacity %d, want 300", byName["beta"].Capacity)
	}
	if byName["win"].Window != 64 || byName["win"].PaneWidth != 16 {
		t.Fatalf("win restored geometry: %+v", byName["win"])
	}

	postDef := estimateStream(t, ts2.URL, "", "?max_stale=0")
	postBeta := estimateStream(t, ts2.URL, "beta", "?max_stale=0")
	postWin := estimateStream(t, ts2.URL, "win", "")
	for _, c := range []struct {
		name      string
		pre, post estimateResponse
	}{{"default", preDef, postDef}, {"beta", preBeta, postBeta}, {"win", preWin, postWin}} {
		if c.pre.Arrivals != c.post.Arrivals || c.pre.Triangles != c.post.Triangles ||
			c.pre.Wedges != c.post.Wedges || c.pre.SampledEdges != c.post.SampledEdges {
			t.Fatalf("stream %s changed across restore:\npre  %+v\npost %+v", c.name, c.pre, c.post)
		}
	}
}

// TestSingleStreamCheckpointFormatUnchanged: with only the default stream
// live, GET /v1/checkpoint must emit the ordinary single-stream document —
// not the KindMulti container — so pre-registry restore paths keep working
// on its output byte-identically.
func TestSingleStreamCheckpointFormatUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 100, Seed: 3})
	resp := postTo(t, ts.URL, "", gen.ErdosRenyi(20, 40, 1))
	resp.Body.Close()
	dl, err := http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(dl.Body)
	dl.Body.Close()
	if err != nil || len(blob) < 6 {
		t.Fatalf("download: %v (%d bytes)", err, len(blob))
	}
	if kind := blob[5]; kind == 0x05 {
		t.Fatal("single-stream server emitted a KindMulti container")
	}

	// With a second stream live, the container kind appears.
	if cr := createStream(t, ts.URL, "extra", ""); cr.StatusCode != http.StatusCreated {
		t.Fatalf("create extra: %d", cr.StatusCode)
	} else {
		cr.Body.Close()
	}
	dl, err = http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, err = io.ReadAll(dl.Body)
	dl.Body.Close()
	if err != nil || len(blob) < 6 {
		t.Fatalf("multi download: %v (%d bytes)", err, len(blob))
	}
	if kind := blob[5]; kind != 0x05 {
		t.Fatalf("two-stream server emitted kind %#x, want the KindMulti container", kind)
	}
	// And ?stream= exports one stream as an ordinary document.
	dl, err = http.Get(ts.URL + "/v1/checkpoint?stream=extra")
	if err != nil {
		t.Fatal(err)
	}
	blob, err = io.ReadAll(dl.Body)
	dl.Body.Close()
	if err != nil || len(blob) < 6 {
		t.Fatalf("per-stream download: %v (%d bytes)", err, len(blob))
	}
	if kind := blob[5]; kind == 0x05 {
		t.Fatal("per-stream export emitted the KindMulti container")
	}
}

// TestServeEngineBoundary grep-gates the Stream abstraction: outside
// tenant.go (the registry's constructor/restore file), no non-test source
// in this package may name a concrete engine shape — the serving layer
// programs against engine.Stream only.
func TestServeEngineBoundary(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := []string{
		"engine.Parallel", "engine.Windowed",
		"engine.NewParallel", "engine.NewWindowed",
		"engine.ReadParallel", "engine.ReadWindowed",
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "tenant.go" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(".", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range forbidden {
			if strings.Contains(string(src), tok) {
				t.Errorf("%s references %s: the serving layer must program against engine.Stream (concrete shapes live in tenant.go)", name, tok)
			}
		}
	}
}
