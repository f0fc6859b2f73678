// The stream registry: named-stream resolution for every /v1/* endpoint
// and the POST/DELETE /v1/streams/{name} lifecycle. The tenant map shares
// closeMu with the close flag, so admission, creation, deletion and
// shutdown all serialize against one lock — a producer that resolved a
// tenant under the read side either completes its enqueue before a delete
// proceeds, or observes the deleted flag and answers 404.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
)

// streamNameRE bounds stream names: path-safe, label-safe, file-safe.
var streamNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func validStreamName(name string) bool { return streamNameRE.MatchString(name) }

// tenantFor resolves the request's target stream from the optional ?stream=
// selector; absence means the default stream, so single-tenant clients
// never see the registry. ok=false means the 404 has been written.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	name := r.URL.Query().Get("stream")
	if name == "" {
		name = defaultStream
	}
	s.closeMu.RLock()
	t := s.tenants[name]
	s.closeMu.RUnlock()
	if t == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown stream %q", name))
		return nil, false
	}
	return t, true
}

// liveTenants returns the current streams, default first and the rest
// sorted by name — the order checkpoints, stats and listings all use.
func (s *Server) liveTenants() []*tenant {
	s.closeMu.RLock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.closeMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name == defaultStream {
			return true
		}
		if out[j].name == defaultStream {
			return false
		}
		return out[i].name < out[j].name
	})
	return out
}

// streamSummary is the JSON shape the registry endpoints answer with.
type streamSummary struct {
	Stream    string  `json:"stream"`
	Capacity  int     `json:"capacity"`
	Weight    string  `json:"weight"`
	Shards    int     `json:"shards"`
	HalfLife  float64 `json:"half_life,omitempty"`
	Window    uint64  `json:"window,omitempty"`
	PaneWidth uint64  `json:"pane_width,omitempty"`
	Default   bool    `json:"default,omitempty"`
}

func summarize(t *tenant) streamSummary {
	return streamSummary{
		Stream:    t.name,
		Capacity:  t.cfg.Capacity,
		Weight:    t.cfg.WeightName,
		Shards:    t.cfg.Shards,
		HalfLife:  t.cfg.HalfLife,
		Window:    t.cfg.Window,
		PaneWidth: t.cfg.PaneWidth,
		Default:   t.name == defaultStream,
	}
}

// handleStreamList (GET /v1/streams) lists every live stream.
func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	tenants := s.liveTenants()
	streams := make([]streamSummary, 0, len(tenants))
	for _, t := range tenants {
		streams = append(streams, summarize(t))
	}
	writeJSON(w, http.StatusOK, map[string]any{"streams": streams})
}

// handleStreamCreate (POST /v1/streams/{name}) creates a named stream. The
// optional JSON body is a StreamSpec; absent fields inherit the server's
// defaults. Creation is atomic with respect to deletion and shutdown: the
// engine is built outside the lock and discarded if another creator won.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validStreamName(name) {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("bad stream name %q (want 1-64 characters of [A-Za-z0-9._-])", name))
		return
	}
	var spec StreamSpec
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&spec); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return
	}
	if spec.Name != "" && spec.Name != name {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("body names stream %q but the URL names %q", spec.Name, name))
		return
	}
	spec.Name = name
	cfg, err := s.streamConfig(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	t, err := newTenant(name, cfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("stream %q: %v", name, err))
		return
	}
	s.closeMu.Lock()
	if s.closed.Load() {
		s.closeMu.Unlock()
		t.eng.Close()
		httpError(w, http.StatusServiceUnavailable, "server closed")
		return
	}
	if _, exists := s.tenants[name]; exists || name == defaultStream {
		s.closeMu.Unlock()
		t.eng.Close()
		httpError(w, http.StatusConflict, fmt.Sprintf("stream %q already exists", name))
		return
	}
	s.installTenantLocked(t)
	s.closeMu.Unlock()
	writeJSON(w, http.StatusCreated, summarize(t))
}

// handleStreamDelete (DELETE /v1/streams/{name}) removes a stream: it is
// unlinked and its queue closed under the write lock (so no new batch can
// be admitted), the queue is drained (every 202 already issued still
// reaches the sampler), and only then is the engine closed.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == defaultStream {
		httpError(w, http.StatusBadRequest, "the default stream cannot be deleted")
		return
	}
	s.closeMu.Lock()
	if s.closed.Load() {
		// Close has already retired every stream and closed its queue.
		s.closeMu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server closed")
		return
	}
	t := s.tenants[name]
	if t == nil {
		s.closeMu.Unlock()
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown stream %q", name))
		return
	}
	delete(s.tenants, name)
	t.deleted.Store(true)
	s.streams.Add(-1)
	// Unregister inside the critical section: a concurrent re-creation of
	// the same name registers under the same label set, and the registry
	// panics on duplicates — the lock orders the two.
	for _, l := range t.label {
		s.reg.Unregister(l)
	}
	close(t.queue)
	s.closeMu.Unlock()
	<-t.loopDone // drain: every acknowledged batch reaches the sampler first
	t.eng.Close()
	t.subs.close()
	writeJSON(w, http.StatusOK, map[string]any{
		"stream":          name,
		"deleted":         true,
		"edges_processed": t.edgesProcessed.Load(),
	})
}

// installTenantLocked links a tenant into the registry, attaches its metric
// samples and starts its ingest loop. Callers hold closeMu.
func (s *Server) installTenantLocked(t *tenant) {
	s.tenants[t.name] = t
	if t.name == defaultStream {
		s.def = t
	}
	s.streams.Add(1)
	s.registerTenantMetrics(t)
	s.wg.Add(1)
	go s.ingestLoop(t)
}
