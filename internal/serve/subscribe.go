// Server-sent-events subscriptions: GET /v1/subscribe?stream=S pushes an
// estimate event for every snapshot epoch its stream installs — the push
// complement of polling /v1/estimate. The feed rides the snapshot cache's
// onInstall hook, so an event is emitted exactly when a query could first
// have observed the same state, and subscribers of one stream never see
// another stream's epochs.
package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// subEventBuffer is each subscriber's channel depth. A subscriber that
// cannot drain (slow link) loses the oldest epochs — counted, never
// blocking the snapshot install path.
const subEventBuffer = 64

// subHub fans snapshot installs out to a stream's SSE subscribers.
type subHub struct {
	mu      sync.Mutex
	subs    map[chan *snapshot]struct{}
	closed  bool
	dropped atomic.Uint64 // events lost to full subscriber buffers
}

func newSubHub() *subHub {
	return &subHub{subs: make(map[chan *snapshot]struct{})}
}

// subscribe registers a new subscriber channel; ok=false means the hub is
// closed (the stream was deleted while the request was in flight).
func (h *subHub) subscribe() (chan *snapshot, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, false
	}
	ch := make(chan *snapshot, subEventBuffer)
	h.subs[ch] = struct{}{}
	return ch, true
}

func (h *subHub) unsubscribe(ch chan *snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, ch)
}

// count reports the live subscriber count, for the gps_serve_subscribers
// gauge.
func (h *subHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// broadcast delivers one installed snapshot to every subscriber without
// blocking: the cache's install path must never wait on a slow reader.
func (h *subHub) broadcast(sn *snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- sn:
		default:
			h.dropped.Add(1)
		}
	}
}

// close terminates every subscriber (they observe a nil receive) and
// refuses new ones. Called on stream deletion, after the ingest loop has
// drained.
func (h *subHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = make(map[chan *snapshot]struct{})
}

// handleSubscribe (GET /v1/subscribe) streams snapshot-epoch estimate
// updates for one stream as server-sent events. The current snapshot (if
// any) is sent immediately, then one event per install. Windowed streams
// have no snapshot epochs to push — their queries merge panes per request —
// so they answer 400.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	if t.windowed() {
		httpError(w, http.StatusBadRequest,
			"subscriptions need a standing snapshot; a windowed stream merges panes per query (poll /v1/estimate)")
		return
	}
	ch, ok := t.subs.subscribe()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown stream %q", t.name))
		return
	}
	defer t.subs.unsubscribe(ch)
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	// The probe flush commits the header; a connection that cannot stream
	// has written nothing yet, so it still gets a proper error response.
	if err := rc.Flush(); err != nil {
		w.Header().Del("X-Accel-Buffering")
		w.Header().Del("Cache-Control")
		httpError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	// Long-lived response: lift any server-wide write deadline for this
	// connection (best effort; ignored where unsupported).
	_ = rc.SetWriteDeadline(time.Time{})
	// The channel is registered before the current snapshot is read, so an
	// install between the two arrives both ways, and installs can reach
	// the channel out of order: send each snapshot newer than the last one
	// sent, and skip the rest.
	var sent uint64
	send := func(sn *snapshot) bool {
		if sn.seq <= sent {
			return true
		}
		sent = sn.seq
		data, err := json.Marshal(t.estimateFrom(sn, sn.degraded))
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: estimate\ndata: %s\n\n", data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	// Installs queued before the current snapshot was read may be older
	// than it: send them and it in install order.
	var first []*snapshot
	if sn := t.snaps.current(); sn != nil {
		first = append(first, sn)
	}
	for queued := true; queued; {
		select {
		case sn := <-ch:
			if sn == nil {
				return // hub closed: the stream was deleted
			}
			first = append(first, sn)
		default:
			queued = false
		}
	}
	slices.SortFunc(first, func(a, b *snapshot) int { return cmp.Compare(a.seq, b.seq) })
	for _, sn := range first {
		if !send(sn) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case sn := <-ch:
			if sn == nil {
				return // hub closed: the stream was deleted
			}
			if !send(sn) {
				return
			}
		}
	}
}
