package main

// The chaos experiment: the fault-injection equivalence drill behind the
// robustness claims. It runs the same deterministic R-MAT stream through
// two in-process gps-serve instances — one fault-free, one under an
// injected failure schedule (transient 503s, lost ingest acks, a fsync
// error during checkpointing, and a shard panic mid-drain) — driving both
// through the at-least-once client. The claim under test: the faulted run
// converges to the *bit-identical* estimate, with the recovery visible in
// the health counters rather than in the answers.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"gps/internal/client"
	"gps/internal/fault"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/serve"
	"gps/internal/stream"
)

// chaosReport is the experiment's outcome, rendered for humans below.
type chaosReport struct {
	Edges        int
	Baseline     client.Estimate
	Faulted      client.Estimate
	Injected     []fault.PointStatus
	Stats        chaosHealth
	Attempts     int // total request attempts across the faulted run
	Requests     int // logical client operations in the faulted run
	CheckpointOK bool
}

// chaosBench runs the drill and fails loudly on any divergence: the
// experiment *is* the assertion, so a green run certifies the recovery
// invariants on this build.
func chaosBench(edges, sample, shards int, seed uint64) (string, error) {
	if edges < 2 || sample < 1 || shards < 1 {
		return "", fmt.Errorf("chaos: need -edges >= 2 and positive -sample, -shards")
	}
	es := rmatStream(edges, seed)
	edges = len(es)
	cfg := func() serve.Config {
		return serve.Config{
			Capacity:     sample,
			WeightName:   "triangle",
			Seed:         seed,
			Shards:       shards,
			MaxStaleness: 100 * time.Millisecond,
		}
	}

	// Life 1: fault-free baseline.
	base, err := chaosRun(cfg(), es, seed)
	if err != nil {
		return "", fmt.Errorf("chaos: baseline run: %w", err)
	}

	// Life 2: the same stream under the failure schedule.
	rep, err := chaosFaultedRun(cfg(), es, seed)
	if err != nil {
		return "", fmt.Errorf("chaos: faulted run: %w", err)
	}
	rep.Edges = edges
	rep.Baseline = base.est

	// Equivalence: the faulted life must answer bit-for-bit the same.
	if err := chaosEquivalent(rep.Baseline, rep.Faulted); err != nil {
		return "", fmt.Errorf("chaos: FAULTED RUN DIVERGED: %w", err)
	}
	// Recovery must be visible — and lossless.
	if rep.Stats.ShardRestarts < 1 {
		return "", fmt.Errorf("chaos: shard panic did not surface a supervisor restart")
	}
	if rep.Stats.Degraded || rep.Stats.LostEdges != 0 {
		return "", fmt.Errorf("chaos: recovery was lossy (degraded=%v lost=%d) — clone+replay should be exact here",
			rep.Stats.Degraded, rep.Stats.LostEdges)
	}
	if rep.Stats.DuplicateBatches < 1 {
		return "", fmt.Errorf("chaos: lost-ack retries were not deduplicated (duplicate_batches=0)")
	}
	if rep.Attempts <= rep.Requests {
		return "", fmt.Errorf("chaos: no retries observed (%d attempts for %d requests) — faults did not fire",
			rep.Attempts, rep.Requests)
	}
	if !rep.CheckpointOK {
		return "", fmt.Errorf("chaos: checkpoint did not recover after the injected fsync fault")
	}
	return renderChaos(rep), nil
}

// chaosLife is one server lifetime driven through the ingest client.
type chaosLife struct {
	srv *serve.Server
	ts  *httptest.Server
	cl  *client.Client
	est client.Estimate
}

func newChaosLife(cfg serve.Config, seed uint64) (*chaosLife, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	cl, err := client.New(client.Config{
		BaseURL:     ts.URL,
		Source:      "chaos",
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		MaxAttempts: 8,
		Seed:        seed ^ 0xC4A05,
	})
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, err
	}
	return &chaosLife{srv: srv, ts: ts, cl: cl}, nil
}

func (l *chaosLife) close() {
	l.ts.Close()
	l.srv.Close()
}

// ingest pushes a slice of the stream in client batches, returning the
// total attempts the acknowledgements took.
func (l *chaosLife) ingest(edges []graph.Edge, batch int) (attempts, requests int, err error) {
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		res, err := l.cl.Ingest(context.Background(), edges[lo:hi])
		if err != nil {
			return attempts, requests, fmt.Errorf("ingest [%d:%d): %w", lo, hi, err)
		}
		attempts += res.Attempts
		requests++
	}
	return attempts, requests, nil
}

// settle flushes and takes a forced-fresh estimate — the read-your-writes
// barrier both lives synchronize on.
func (l *chaosLife) settle() (attempts int, err error) {
	if err := l.cl.Flush(context.Background()); err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	est, err := l.cl.Estimate(context.Background(), 0)
	if err != nil {
		return 0, fmt.Errorf("estimate: %w", err)
	}
	l.est = est
	return 2, nil
}

// chaosRun is one complete fault-free life over the stream.
func chaosRun(cfg serve.Config, es []graph.Edge, seed uint64) (*chaosLife, error) {
	l, err := newChaosLife(cfg, seed)
	if err != nil {
		return nil, err
	}
	defer l.close()
	if _, _, err := l.ingest(es, chaosBatch); err != nil {
		return nil, err
	}
	if _, err := l.settle(); err != nil {
		return nil, err
	}
	return l, nil
}

const chaosBatch = 4096

// chaosFaultedRun replays the stream under the failure schedule, in three
// acts so the shard panic lands with a fresh clone behind it (making the
// supervisor's ring replay provably exact, not merely best-effort):
//
//  1. First half under transient route 503s and lost ingest acks — the
//     client retries through both; the server deduplicates the re-sent
//     sequence numbers.
//  2. A checkpoint attempt under an injected fsync error (503, no torn
//     file), retried clean after the schedule clears.
//  3. Second half opening with a shard panic mid-drain; the supervisor
//     restores the panicked shard from its clone and replays the ring
//     backlog.
func chaosFaultedRun(cfg serve.Config, es []graph.Edge, seed uint64) (chaosReport, error) {
	var rep chaosReport
	ckptDir, err := os.MkdirTemp("", "gps-chaos-ckpt-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(ckptDir)
	cfg.CheckpointDir = ckptDir

	l, err := newChaosLife(cfg, seed+1)
	if err != nil {
		return rep, err
	}
	defer l.close()
	defer fault.Disarm()

	arm := func(spec string) error {
		rules, err := fault.ParseSpec(spec)
		if err != nil {
			return err
		}
		fault.Arm(seed, rules)
		return nil
	}
	collect := func() {
		rep.Injected = append(rep.Injected, fault.Status()...)
	}
	half := len(es) / 2

	// Act 1: transient 503s + lost acks over the first half.
	if err := arm("serve.http:error:times=2,msg=chaos transient;serve.ingest.ack:error:times=2,msg=chaos lost ack"); err != nil {
		return rep, err
	}
	a, r, err := l.ingest(es[:half], chaosBatch)
	rep.Attempts += a
	rep.Requests += r
	if err != nil {
		return rep, err
	}
	a, err = l.settle() // snapshot: clones now cover everything drained
	rep.Attempts += a
	rep.Requests += 2
	if err != nil {
		return rep, err
	}
	collect()

	// Act 2: checkpoint under an injected fsync error — must refuse with a
	// transient class and leave no torn file, then succeed once clear.
	if err := arm("checkpoint.fsync:error:times=1,msg=chaos fsync"); err != nil {
		return rep, err
	}
	if status, err := chaosPost(l.ts.URL + "/v1/checkpoint"); err != nil {
		return rep, err
	} else if status != http.StatusServiceUnavailable {
		return rep, fmt.Errorf("checkpoint under fsync fault: status %d, want 503", status)
	}
	collect()
	fault.Disarm()
	if status, err := chaosPost(l.ts.URL + "/v1/checkpoint"); err != nil {
		return rep, err
	} else if status == http.StatusOK {
		rep.CheckpointOK = true
	}

	// Act 3: the shard panic. The first span drained after arming panics;
	// the supervisor restores from the act-1 clone and replays the ring.
	if err := arm("engine.shard.drain:panic:times=1,msg=chaos shard panic"); err != nil {
		return rep, err
	}
	a, r, err = l.ingest(es[half:], chaosBatch)
	rep.Attempts += a
	rep.Requests += r
	if err != nil {
		return rep, err
	}
	a, err = l.settle()
	rep.Attempts += a
	rep.Requests += 2
	if err != nil {
		return rep, err
	}
	collect()
	fault.Disarm()

	rep.Faulted = l.est
	rep.Stats, err = chaosStats(l.ts.URL)
	return rep, err
}

func chaosPost(url string) (int, error) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// chaosHealth is what the drill reads back from the faulted server's
// /v1/stats metrics.
type chaosHealth struct {
	ShardRestarts    uint64
	LostEdges        uint64
	Degraded         bool
	DuplicateBatches uint64
}

func chaosStats(base string) (chaosHealth, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return chaosHealth{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return chaosHealth{}, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return chaosHealth{}, fmt.Errorf("stats: %w", err)
	}
	m := doc.Metrics
	for _, name := range []string{"gps_engine_shard_restarts_total", "gps_engine_shard_lost_edges_total",
		"gps_engine_shards_degraded", "gps_serve_duplicate_batches_total"} {
		if _, ok := m[name]; !ok {
			return chaosHealth{}, fmt.Errorf("stats: no %s metric", name)
		}
	}
	return chaosHealth{
		ShardRestarts:    uint64(m["gps_engine_shard_restarts_total"]),
		LostEdges:        uint64(m["gps_engine_shard_lost_edges_total"]),
		Degraded:         m["gps_engine_shards_degraded"] > 0,
		DuplicateBatches: uint64(m["gps_serve_duplicate_batches_total"]),
	}, nil
}

// chaosEquivalent demands bit-identical estimates between the lives.
func chaosEquivalent(a, b client.Estimate) error {
	switch {
	case a.Arrivals != b.Arrivals:
		return fmt.Errorf("arrivals %d vs %d", a.Arrivals, b.Arrivals)
	case a.SampledEdges != b.SampledEdges:
		return fmt.Errorf("sampled edges %d vs %d", a.SampledEdges, b.SampledEdges)
	case a.Threshold != b.Threshold:
		return fmt.Errorf("threshold %v vs %v", a.Threshold, b.Threshold)
	case a.Triangles != b.Triangles:
		return fmt.Errorf("triangles %v vs %v", a.Triangles, b.Triangles)
	case a.Wedges != b.Wedges:
		return fmt.Errorf("wedges %v vs %v", a.Wedges, b.Wedges)
	case b.Degraded:
		return fmt.Errorf("faulted run answered degraded despite exact recovery")
	}
	return nil
}

func renderChaos(rep chaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream: %d edges, two lives (fault-free vs injected schedule), at-least-once client\n\n", rep.Edges)
	fmt.Fprintf(&b, "%-14s %14s %14s\n", "", "baseline", "faulted")
	row := func(name string, a, c any) { fmt.Fprintf(&b, "%-14s %14v %14v\n", name, a, c) }
	row("arrivals", rep.Baseline.Arrivals, rep.Faulted.Arrivals)
	row("sampled", rep.Baseline.SampledEdges, rep.Faulted.SampledEdges)
	row("triangles", fmt.Sprintf("%.1f", rep.Baseline.Triangles), fmt.Sprintf("%.1f", rep.Faulted.Triangles))
	row("wedges", fmt.Sprintf("%.1f", rep.Baseline.Wedges), fmt.Sprintf("%.1f", rep.Faulted.Wedges))
	row("threshold", fmt.Sprintf("%.6g", rep.Baseline.Threshold), fmt.Sprintf("%.6g", rep.Faulted.Threshold))
	b.WriteString("estimates: BIT-IDENTICAL\n\n")
	fmt.Fprintf(&b, "injected faults fired:\n")
	for _, ps := range rep.Injected {
		fmt.Fprintf(&b, "  %-24s %-8s fired %d/%d hits\n", ps.Point, ps.Kind, ps.Fired, ps.Hits)
	}
	fmt.Fprintf(&b, "\nfaulted-run health: shard restarts %d, lost edges %d, degraded %v\n",
		rep.Stats.ShardRestarts, rep.Stats.LostEdges, rep.Stats.Degraded)
	fmt.Fprintf(&b, "client: %d logical requests took %d attempts (retries absorbed every injected failure)\n",
		rep.Requests, rep.Attempts)
	fmt.Fprintf(&b, "dedup: %d lost-ack retries answered duplicate; checkpoint recovered after fsync fault: %v\n",
		rep.Stats.DuplicateBatches, rep.CheckpointOK)
	return b.String()
}

// rmatStream generates a permuted R-MAT stream of (up to) the requested
// length, choosing the scale so the generator can supply it.
func rmatStream(edges int, seed uint64) []graph.Edge {
	scale := 10
	for (1<<scale)*16 < edges {
		scale++
	}
	all := gen.RMAT(scale, 16, 0.57, 0.19, 0.19, seed)
	if len(all) < edges {
		edges = len(all)
	}
	return stream.Collect(stream.Permute(all, seed^0x7EA))[:edges]
}
