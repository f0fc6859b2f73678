package engine

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/randx"
)

// mergedState reduces a Merge result to its GPSC serialization — the
// strongest equality available: reservoir membership, weights, priorities,
// covariance accumulators, heap order, threshold, counters and RNG state
// all land in the bytes, so two equal serializations are samplers that will
// evolve bit-identically forever.
func mergedState(t *testing.T, p *Parallel) []byte {
	t.Helper()
	m, err := p.Merge()
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	var buf bytes.Buffer
	if err := m.WriteCheckpoint(&buf, "test"); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestBatchGroupingMatchesPerEdgeRouting is the router's bit-exactness
// contract: one engine fed through ProcessBatch with randomized batch sizes
// (through a deliberately tiny ring, so appends wrap and chunk) must be
// bit-identical to a twin fed the same stream one edge at a time — same
// merged reservoir, weights, priorities, threshold — with interleaved
// barriers (Arrivals, Snapshot) not disturbing either.
func TestBatchGroupingMatchesPerEdgeRouting(t *testing.T) {
	for _, tc := range []struct {
		name  string
		decay core.Decay
	}{
		{"undecayed", core.Decay{}},
		{"decayed", core.Decay{HalfLife: 5000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := testStream(3000, 12000, 0x71)
			cfg := core.Config{Capacity: 500, Weight: core.TriangleWeight, Seed: 0xBEEF, Decay: tc.decay}

			batched, err := newParallel(cfg, 4, 64) // tiny ring: forces wraparound and chunked appends
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			perEdge, err := NewParallel(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer perEdge.Close()

			rng := randx.New(0x1234)
			for off := 0; off < len(edges); {
				n := int(rng.Uint64() % 200) // includes 0 (empty batch) and > ring capacity
				if off+n > len(edges) {
					n = len(edges) - off
				}
				batched.ProcessBatch(edges[off : off+n])
				off += n
				if rng.Uint64()%16 == 0 {
					batched.Arrivals() // barrier mid-stream
				}
				if rng.Uint64()%32 == 0 {
					if _, err := batched.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, e := range edges {
				perEdge.Process(e)
			}

			if got, want := mergedState(t, batched), mergedState(t, perEdge); !bytes.Equal(got, want) {
				t.Fatalf("batched routing merged state (%d bytes) differs from per-edge routing (%d bytes)",
					len(got), len(want))
			}
		})
	}
}

// TestConcurrentShardDisjointProducersDeterministic pins the concurrency
// contract: producers whose edge sets route to disjoint shards may feed the
// engine concurrently and the result is still bit-identical to one
// producer feeding the whole stream in order (per-shard order is stream
// order either way). Runs with decay too — with an explicit landmark and
// pre-stamped event times the decayed run is equally order-insensitive.
// With -race this doubles as the router's data-race suite.
func TestConcurrentShardDisjointProducersDeterministic(t *testing.T) {
	const shards = 4
	edges := testStream(2500, 10000, 0x99)
	for _, tc := range []struct {
		name  string
		decay core.Decay
		stamp bool
	}{
		{"undecayed", core.Decay{}, false},
		{"decayed", core.Decay{HalfLife: 4000, Landmark: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := edges
			if tc.stamp {
				stream = make([]graph.Edge, len(edges))
				copy(stream, edges)
				for i := range stream {
					stream[i].TS = uint64(i + 1)
				}
			}
			cfg := core.Config{Capacity: 400, Seed: 0xD00D, Decay: tc.decay}

			sequential, err := NewParallel(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer sequential.Close()
			sequential.ProcessBatch(stream)
			want := mergedState(t, sequential)

			concurrent, err := newParallel(cfg, shards, 128)
			if err != nil {
				t.Fatal(err)
			}
			defer concurrent.Close()
			// Partition by owning shard, preserving stream order per shard.
			parts := make([][]graph.Edge, shards)
			for _, e := range stream {
				s := concurrent.ShardOf(e)
				parts[s] = append(parts[s], e)
			}
			var wg sync.WaitGroup
			for pi, part := range parts {
				wg.Add(1)
				go func(pi int, part []graph.Edge) {
					defer wg.Done()
					rng := randx.New(uint64(pi) * 7779)
					for off := 0; off < len(part); {
						n := 1 + int(rng.Uint64()%300)
						if off+n > len(part) {
							n = len(part) - off
						}
						concurrent.ProcessBatch(part[off : off+n])
						off += n
					}
				}(pi, part)
			}
			wg.Wait()

			if got := mergedState(t, concurrent); !bytes.Equal(got, want) {
				t.Fatalf("concurrent shard-disjoint producers merged state differs from sequential feeding")
			}
		})
	}
}

// TestConcurrentOverlappingProducersSharedRings drives admission under
// contention: producers feed contiguous stripes of one stream, so every
// producer's batches reach every shard. Per-shard order follows the
// accepted batch order, which depends on scheduling, and priorities with
// it, so the check is on the edge set; a capacity above the stream length
// keeps every edge, which makes that check exact: nothing lost, duplicated
// or evicted. With -race this is the router's shared-ring data-race suite.
func TestConcurrentOverlappingProducersSharedRings(t *testing.T) {
	const producers = 4
	edges := testStream(2500, 10000, 0x57)
	// 4× the stream length: each shard's capacity covers the whole stream.
	p, err := newParallel(core.Config{Capacity: 4 * len(edges), Seed: 0x5EED}, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stripe := (len(edges) + producers - 1) / producers
	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		part := edges[min(pi*stripe, len(edges)):min((pi+1)*stripe, len(edges))]
		wg.Add(1)
		go func(pi int, part []graph.Edge) {
			defer wg.Done()
			rng := randx.New(uint64(pi)*7919 + 1)
			for off := 0; off < len(part); {
				n := min(1+int(rng.Uint64()%300), len(part)-off)
				p.ProcessBatch(part[off : off+n])
				off += n
			}
		}(pi, part)
	}
	wg.Wait()

	if got := p.Arrivals(); got != uint64(len(edges)) {
		t.Fatalf("Arrivals = %d, want %d", got, len(edges))
	}
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := signature(t, m)
	want := make([]uint64, len(edges))
	for i, e := range edges {
		want[i] = e.Key()
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("merged sample holds %d edges, want the stream's %d distinct edges", len(got), len(want))
	}
	t.Logf("ring stalls: %d", p.RingStats().Stalls)
}

// TestConcurrentProducersShareOneOrder pins the order admission promises
// concurrent producers: every shard receives each batch's edges as one
// contiguous run, and all shards receive the batches in one common order.
// Four producers race over stripes of distinct edges through tiny rings; a
// non-uniform weight function (the uniform one is never called) logs each
// shard's arrivals in the order its sampler sees them, and a capacity above
// the stream length makes every edge an arrival.
func TestConcurrentProducersShareOneOrder(t *testing.T) {
	const producers, shards = 4, 4
	edges := testStream(2500, 10000, 0x0DE7)
	logs := make([][]graph.Edge, shards) // each written by its shard's goroutine only
	var p *Parallel
	weight := func(e graph.Edge, _ *core.Reservoir) float64 {
		s := p.ShardOf(e)
		logs[s] = append(logs[s], e)
		return 1 + float64(e.Key()%3)
	}
	p, err := newParallel(core.Config{Capacity: 4 * len(edges), Weight: weight, Seed: 0x0DE7}, shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Cut every producer's stripe into random batches of 1–300 edges and
	// number the batches globally.
	batchOf := make(map[uint64]int, len(edges))
	batches := make([][][]graph.Edge, producers)
	stripe := (len(edges) + producers - 1) / producers
	rng := randx.New(0x0DE7)
	id := 0
	for pi := range batches {
		part := edges[min(pi*stripe, len(edges)):min((pi+1)*stripe, len(edges))]
		for off := 0; off < len(part); id++ {
			n := min(1+int(rng.Uint64()%300), len(part)-off)
			for _, e := range part[off : off+n] {
				batchOf[e.Key()] = id
			}
			batches[pi] = append(batches[pi], part[off:off+n])
			off += n
		}
	}

	var wg sync.WaitGroup
	for _, bs := range batches {
		wg.Add(1)
		go func(bs [][]graph.Edge) {
			defer wg.Done()
			for _, b := range bs {
				p.ProcessBatch(b)
			}
		}(bs)
	}
	wg.Wait()
	if got := p.Arrivals(); got != uint64(len(edges)) { // barrier: the logs are complete
		t.Fatalf("Arrivals = %d, want %d", got, len(edges))
	}

	// Reduce each shard's log to its batch order, requiring every batch's
	// edges to be contiguous on the shard.
	orders := make([][]int, shards)
	logged := 0
	for s, log := range logs {
		seen := make(map[int]bool)
		for _, e := range log {
			b := batchOf[e.Key()]
			if n := len(orders[s]); n > 0 && orders[s][n-1] == b {
				continue
			}
			if seen[b] {
				t.Fatalf("shard %d: batch %d split by another batch's edges", s, b)
			}
			seen[b] = true
			orders[s] = append(orders[s], b)
		}
		logged += len(log)
	}
	if logged != len(edges) {
		t.Fatalf("weight function saw %d arrivals, want %d", logged, len(edges))
	}
	// The batches two shards share must reach them in the same order.
	shared := func(a, b []int) []int {
		in := make(map[int]bool, len(b))
		for _, x := range b {
			in[x] = true
		}
		var out []int
		for _, x := range a {
			if in[x] {
				out = append(out, x)
			}
		}
		return out
	}
	for a := 0; a < shards; a++ {
		for b := a + 1; b < shards; b++ {
			if !slices.Equal(shared(orders[a], orders[b]), shared(orders[b], orders[a])) {
				t.Fatalf("shards %d and %d receive their shared batches in different orders", a, b)
			}
		}
	}
}

// TestRingOrderAndWraparound drives a tiny ring directly: every appended
// edge must come out exactly once, in append order, across wraparounds and
// chunked oversized batches.
func TestRingOrderAndWraparound(t *testing.T) {
	r := newRing(16)
	var got []graph.Edge
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.consume(func(es []graph.Edge) {
			got = append(got, es...)
			time.Sleep(50 * time.Microsecond) // keep the ring filling up
		})
	}()
	const n = 1000
	rng := randx.New(42)
	var sent []graph.Edge
	for i := 0; len(sent) < n; i++ {
		batch := make([]graph.Edge, 1+rng.Uint64()%40) // often larger than the ring
		for j := range batch {
			e := graph.Edge{U: graph.NodeID(len(sent) + j + 1), V: graph.NodeID(len(sent) + j + 2)}
			batch[j] = e
		}
		sent = append(sent, batch...)
		r.append(batch)
	}
	r.drainWait()
	if d := r.depth(); d != 0 {
		t.Fatalf("depth %d after drainWait", d)
	}
	r.close()
	<-done
	if len(got) != len(sent) {
		t.Fatalf("consumed %d edges, sent %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("edge %d: got %v, want %v", i, got[i], sent[i])
		}
	}
	if r.stalls.Load() == 0 {
		t.Error("expected producer stalls on a 16-slot ring under a slow consumer")
	}
}

// TestRingCapacityValidation pins the power-of-two requirement.
func TestRingCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 24, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newRing(%d) did not panic", bad)
				}
			}()
			newRing(bad)
		}()
	}
	newRing(1)
	newRing(1 << 10)
}

// TestRingStatsGauges checks the monitoring surface: after a barrier the
// backlog is zero, epochs cover every routed edge, and a tiny-ring engine
// under load reports producer stalls.
func TestRingStatsGauges(t *testing.T) {
	cfg := core.Config{Capacity: 200, Seed: 7}
	p, err := newParallel(cfg, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	edges := testStream(1500, 6000, 0x31)
	p.ProcessBatch(edges)
	arrivals := p.Arrivals() // barrier
	st := p.RingStats()
	if st.Capacity != 32 {
		t.Errorf("Capacity = %d, want 32", st.Capacity)
	}
	if st.Backlog != 0 {
		t.Errorf("Backlog = %d after barrier, want 0", st.Backlog)
	}
	var routed uint64
	for _, e := range st.Epochs {
		routed += e
	}
	if routed != uint64(len(edges)) {
		t.Errorf("epochs sum %d, want %d routed edges", routed, len(edges))
	}
	if arrivals > uint64(len(edges)) {
		t.Errorf("arrivals %d exceeds routed edges %d", arrivals, len(edges))
	}
	if len(st.Depths) != 4 || len(st.Epochs) != 4 {
		t.Errorf("expected 4 shard gauges, got %d/%d", len(st.Depths), len(st.Epochs))
	}
}

// TestRingSkipAllAccountsBeforeRelease pins the order skipAll promises a
// quarantine: the skipped count is handed to the accounting callback while
// head still trails tail, so nothing a barrier can observe after the jump
// predates the accounting.
func TestRingSkipAllAccountsBeforeRelease(t *testing.T) {
	r := newRing(8)
	r.append(make([]graph.Edge, 5))
	calls := 0
	r.skipAll(func(skipped uint64) {
		calls++
		if skipped != 5 {
			t.Errorf("skipped %d, want 5", skipped)
		}
		if head, tail := r.head.Load(), r.tail.Load(); head >= tail {
			t.Errorf("accounting ran after the head moved: head %d, tail %d", head, tail)
		}
	})
	if calls != 1 {
		t.Fatalf("accounting ran %d times, want 1", calls)
	}
	if d := r.depth(); d != 0 {
		t.Fatalf("depth %d after skipAll, want 0", d)
	}
	r.drainWait() // returns at once: the ring is empty
	r.skipAll(func(skipped uint64) {
		if skipped != 0 {
			t.Errorf("skipped %d on an empty ring, want 0", skipped)
		}
	})
}
