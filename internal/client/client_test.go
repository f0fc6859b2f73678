package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/client"
	"gps/internal/fault"
	"gps/internal/gen"
	"gps/internal/serve"
)

func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.NewServer(cfg)
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

func newClient(t *testing.T, url, source string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		BaseURL:     url,
		Source:      source,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func armFaults(t *testing.T, spec string) {
	t.Helper()
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(7, rules)
	t.Cleanup(fault.Disarm)
}

// TestClientLostAckConvergence is the at-least-once contract end to end
// against the real server: the first acknowledgement is replaced by an
// injected 503 after the batch was committed; the client's retry of the
// same sequence number is answered "duplicate" and the stream converges to
// exactly-once application.
func TestClientLostAckConvergence(t *testing.T) {
	edges := gen.ErdosRenyi(80, 600, 21)
	_, ts := newServer(t, serve.Config{Capacity: 1000, Seed: 3})
	c := newClient(t, ts.URL, "loader")

	armFaults(t, "serve.ingest.ack:error:times=1")
	res, err := c.Ingest(context.Background(), edges)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want a retry after the lost ack", res.Attempts)
	}
	if !res.Duplicate || res.Accepted != 0 {
		t.Fatalf("retry result = %+v, want server-side dedup", res)
	}
	fault.Disarm()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	est, err := c.Estimate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Arrivals != uint64(len(edges)) {
		t.Fatalf("arrivals = %d, want %d (batch applied exactly once)", est.Arrivals, len(edges))
	}
}

// TestClientRetriesTransientHTTP: injected route-level 503s are retried
// until the rule is exhausted; the workload lands intact.
func TestClientRetriesTransientHTTP(t *testing.T) {
	edges := gen.ErdosRenyi(50, 300, 23)
	_, ts := newServer(t, serve.Config{Capacity: 1000, Seed: 4})
	c := newClient(t, ts.URL, "loader")

	armFaults(t, "serve.http:error:times=3")
	res, err := c.Ingest(context.Background(), edges)
	if err != nil {
		t.Fatalf("ingest under transient faults: %v", err)
	}
	if res.Accepted != len(edges) {
		t.Fatalf("accepted = %d, want %d", res.Accepted, len(edges))
	}
	fault.Disarm()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	est, err := c.Estimate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Arrivals != uint64(len(edges)) {
		t.Fatalf("arrivals = %d, want %d", est.Arrivals, len(edges))
	}
}

// TestClientNonRetryable: a client error (4xx other than 408/429) fails
// fast without retries.
func TestClientNonRetryable(t *testing.T) {
	var hits atomic.Int64
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"bad batch"}`, http.StatusBadRequest)
	}))
	defer h.Close()
	c := newClient(t, h.URL, "loader")
	_, err := c.Ingest(context.Background(), gen.ErdosRenyi(10, 20, 1))
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1 (no retry on 4xx)", hits.Load())
	}
}

// TestClientExhaustsRetries: persistent overload yields a RetryError that
// unwraps to the last 503.
func TestClientExhaustsRetries(t *testing.T) {
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	defer h.Close()
	c, err := client.New(client.Config{
		BaseURL: h.URL, Source: "loader",
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Ingest(context.Background(), gen.ErdosRenyi(10, 20, 1))
	var re *client.RetryError
	if !errors.As(err, &re) || re.Attempts != 3 {
		t.Fatalf("err = %v, want RetryError after 3 attempts", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("RetryError does not unwrap to the last 503: %v", err)
	}
}

// TestClientUnsequenced: without a Source the client sends no dedup
// headers — fire-and-forget compatibility mode.
func TestClientUnsequenced(t *testing.T) {
	var sawSource atomic.Bool
	_, ts := newServer(t, serve.Config{Capacity: 100, Seed: 5})
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-GPS-Source") != "" {
			sawSource.Store(true)
		}
		http.Error(w, `{"error":"nope"}`, http.StatusBadRequest) // stop after one attempt
	}))
	defer probe.Close()
	c, err := client.New(client.Config{BaseURL: probe.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Ingest(context.Background(), gen.ErdosRenyi(10, 20, 2))
	if sawSource.Load() {
		t.Fatal("unsequenced client sent X-GPS-Source")
	}
	// And against the real server an unsequenced ingest still lands.
	c2, err := client.New(client.Config{BaseURL: ts.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Ingest(context.Background(), gen.ErdosRenyi(10, 20, 2))
	if err != nil || res.Accepted == 0 {
		t.Fatalf("unsequenced ingest: res=%+v err=%v", res, err)
	}
	if res.Seq != 0 {
		t.Fatalf("unsequenced result carries seq %d", res.Seq)
	}
}

// TestClientContextCancel: a canceled context stops the retry loop
// promptly instead of sleeping out the backoff schedule.
func TestClientContextCancel(t *testing.T) {
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	defer h.Close()
	c, err := client.New(client.Config{
		BaseURL: h.URL, Source: "loader",
		MaxAttempts: 100, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Ingest(ctx, gen.ErdosRenyi(10, 20, 3))
	if err == nil {
		t.Fatal("ingest succeeded against a dead server")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("cancelation took %v", waited)
	}
}
