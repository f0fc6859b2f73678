package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"gps/internal/graph"
)

// hookWriter is an http.ResponseWriter for a handler run in process: it
// keeps the body under a lock, so the test can read it while the handler
// writes, and runs hook inside the first Flush.
type hookWriter struct {
	header http.Header
	hook   func()
	once   sync.Once
	mu     sync.Mutex
	body   bytes.Buffer
}

func (w *hookWriter) Header() http.Header { return w.header }
func (w *hookWriter) WriteHeader(int)     {}
func (w *hookWriter) Flush()              { w.once.Do(w.hook) }

func (w *hookWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

// arrivals returns the Arrivals of every estimate event written so far.
func (w *hookWriter) arrivals(t *testing.T) []uint64 {
	w.mu.Lock()
	body := bytes.Clone(w.body.Bytes())
	w.mu.Unlock()
	events := make(chan sseEvent, 64)
	readSSE(t, bytes.NewReader(body), events)
	var out []uint64
	for ev := range events {
		out = append(out, ev.data.Arrivals)
	}
	return out
}

// TestSubscribeSendsEachInstallOnce installs one or two snapshots after
// the subscriber's channel is registered and before the handler reads the
// current snapshot. The handler's probe flush sits between the two, so a
// writer whose first Flush waits for the installs places them there every
// time. Those snapshots and the next one must each be sent exactly once,
// in install order.
func TestSubscribeSendsEachInstallOnce(t *testing.T) {
	for _, before := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d before", before), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Capacity: 1000, Seed: 3})
			next := graph.NodeID(1)
			install := func() uint64 {
				var batch []graph.Edge
				for range 5 {
					batch = append(batch, graph.NewEdge(next, next+1))
					next += 2
				}
				postTo(t, ts.URL, "", batch).Body.Close()
				flushStream(t, ts.URL, "")
				return estimateStream(t, ts.URL, "", "?max_stale=0").Arrivals
			}

			reached, installed := make(chan struct{}), make(chan struct{})
			w := &hookWriter{header: http.Header{}, hook: func() {
				close(reached)
				<-installed
			}}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.handleSubscribe(w, httptest.NewRequest(http.MethodGet, "/v1/subscribe", nil).WithContext(ctx))
			}()
			<-reached
			var want []uint64
			for range before {
				want = append(want, install())
			}
			close(installed)
			want = append(want, install())
			last := want[len(want)-1]

			deadline := time.Now().Add(5 * time.Second)
			for got := w.arrivals(t); len(got) == 0 || got[len(got)-1] != last; got = w.arrivals(t) {
				if time.Now().After(deadline) {
					t.Fatalf("events %v never reached the last install (arrivals %d)", got, last)
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			<-done
			if got := w.arrivals(t); !slices.Equal(got, want) {
				t.Fatalf("events carry arrivals %v, want %v: each install sent once", got, want)
			}
		})
	}
}
