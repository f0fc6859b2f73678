package engine

import (
	"strings"
	"testing"

	"gps/internal/core"
	"gps/internal/fault"
)

// armFaults arms a fault spec for the duration of the test.
func armFaults(t *testing.T, seed uint64, spec string) {
	t.Helper()
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("fault spec %q: %v", spec, err)
	}
	fault.Arm(seed, rules)
	t.Cleanup(fault.Disarm)
}

// TestSupervisorExactRecovery is the headline self-healing property: a
// shard that panics with its last clone at the current consumer position
// restores from the clone, replays the ring backlog, and ends bit-identical
// to a run that never panicked.
func TestSupervisorExactRecovery(t *testing.T) {
	stream := testStream(500, 6000, 0xFA01)
	cfg := core.Config{Capacity: 400, Seed: 11}

	// Fault-free twin.
	want, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	want.ProcessBatch(stream)
	wm, err := want.Merge()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantZ, wantA := signature(t, wm)

	p, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:3000])
	// Snapshot clones the shard at position 3000 with the ring drained:
	// cloneHead == head, so the very next drained span can be recovered
	// exactly.
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[3000:])
	m, err := p.Merge() // barriers wait out the recovery + replay
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()

	keys, z, a := signature(t, m)
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if p.Degraded() || p.LostEdges() != 0 {
		t.Fatalf("exact recovery left engine degraded (lost=%d)", p.LostEdges())
	}
	if z != wantZ || a != wantA || len(keys) != len(wantKeys) {
		t.Fatalf("recovered run differs: z %v vs %v, arrivals %d vs %d, len %d vs %d",
			z, wantZ, a, wantA, len(keys), len(wantKeys))
	}
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("recovered run differs at sampled edge %d", i)
		}
	}
	health, degraded := p.Health()
	if degraded || len(health) != 1 || health[0].Restarts != 1 {
		t.Fatalf("Health() = %+v degraded=%v, want 1 restart, not degraded", health, degraded)
	}
	if !strings.Contains(health[0].LastPanic, "engine.shard.drain") {
		t.Fatalf("LastPanic = %q, want the injected point name", health[0].LastPanic)
	}
}

// TestSupervisorExactScratchRebuild: a panic on the very first span ever
// drained (no clone, head still 0) rebuilds from scratch but loses
// nothing — the fresh sampler is seeded like the original and the whole
// backlog replays, so the run stays bit-identical and undegraded.
func TestSupervisorExactScratchRebuild(t *testing.T) {
	stream := testStream(300, 3000, 0xFA07)
	cfg := core.Config{Capacity: 200, Seed: 5}
	want, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	want.ProcessBatch(stream)
	wm, err := want.Merge()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantZ, wantA := signature(t, wm)

	p, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream)
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if p.Degraded() || p.LostEdges() != 0 {
		t.Fatalf("zero-loss scratch rebuild flagged lossy (degraded=%v lost=%d)",
			p.Degraded(), p.LostEdges())
	}
	keys, z, a := signature(t, m)
	if z != wantZ || a != wantA || len(keys) != len(wantKeys) {
		t.Fatalf("rebuilt run differs: z %v vs %v, arrivals %d vs %d, len %d vs %d",
			z, wantZ, a, wantA, len(keys), len(wantKeys))
	}
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("rebuilt run differs at sampled edge %d", i)
		}
	}
}

// TestSupervisorLossyRecovery: a shard that panics with no clone to
// restore from rebuilds from scratch — the engine stays up and serving,
// but reports the loss: degraded, lost edges, and a restart.
func TestSupervisorLossyRecovery(t *testing.T) {
	stream := testStream(300, 3000, 0xFA02)
	p, err := NewParallel(core.Config{Capacity: 200, Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:1000])
	if got := p.Arrivals(); got != 1000 {
		t.Fatalf("arrivals before fault = %d", got)
	}
	// No snapshot was ever taken, so recovery falls back to a fresh
	// sampler: everything drained so far is lost.
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[1000:])
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if !p.Degraded() {
		t.Fatal("lossy recovery did not degrade the engine")
	}
	if lost := p.LostEdges(); lost != 1000 {
		t.Fatalf("lost = %d, want the 1000 drained-then-unrecoverable edges", lost)
	}
	// The rebuilt shard processed exactly the replayed backlog.
	if got := m.Arrivals(); got != uint64(len(stream)-1000) {
		t.Fatalf("post-recovery arrivals = %d, want %d", got, len(stream)-1000)
	}
	if _, degraded := p.Health(); !degraded {
		t.Fatal("Health() does not report degradation")
	}
}

// TestSupervisorQuarantine: a deterministically poisonous backlog (the
// injected panic fires on every replay) is quarantined after
// maxPanicStreak consecutive failures instead of looping forever; fresh
// traffic flows afterwards.
func TestSupervisorQuarantine(t *testing.T) {
	stream := testStream(300, 3000, 0xFA03)
	p, err := NewParallel(core.Config{Capacity: 200, Seed: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:500])
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Exactly maxPanicStreak firings: every replay of the poisoned span
	// panics again until the streak trips quarantine.
	armFaults(t, 1, "engine.shard.drain:panic:times=8")
	p.ProcessBatch(stream[500:1000])
	if got := p.Arrivals(); got != 500 {
		t.Fatalf("arrivals after quarantine = %d, want the pre-fault 500 (backlog dropped)", got)
	}
	fault.Disarm()
	if p.Restarts() != maxPanicStreak {
		t.Fatalf("restarts = %d, want %d", p.Restarts(), maxPanicStreak)
	}
	if !p.Degraded() {
		t.Fatal("quarantine did not degrade the engine")
	}
	if lost := p.LostEdges(); lost != 500 {
		t.Fatalf("lost = %d, want the 500 quarantined edges", lost)
	}
	// The shard keeps serving fresh traffic after quarantine.
	p.ProcessBatch(stream[1000:1500])
	if got := p.Arrivals(); got != 1000 {
		t.Fatalf("arrivals after fresh traffic = %d, want 1000", got)
	}
}

// TestSupervisorRecoveryWithDecay: the from-scratch rebuild path must
// re-pin the decay landmark or decayed admission would panic on the
// rebuilt sampler.
func TestSupervisorRecoveryWithDecay(t *testing.T) {
	stream := testStream(200, 2000, 0xFA04)
	cfg := core.Config{Capacity: 150, Seed: 13, Decay: core.Decay{HalfLife: 500}}
	p, err := NewParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:800])
	// Barrier: drain the first batch so the rebuild demonstrably loses it
	// (a panic before anything drained would recover exactly instead).
	if got := p.Arrivals(); got != 800 {
		t.Fatalf("arrivals before fault = %d", got)
	}
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[800:])
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if !p.Degraded() {
		t.Fatal("scratch rebuild should degrade")
	}
	if lm, ok := m.DecayLandmark(); !ok || lm != 1 {
		t.Fatalf("rebuilt sampler landmark = (%d,%v), want the pinned arrival clock 1", lm, ok)
	}
}

// TestSupervisorMultiShardIsolation: a panic on one shard leaves the
// other shards' samplers untouched.
func TestSupervisorMultiShardIsolation(t *testing.T) {
	stream := testStream(500, 6000, 0xFA05)
	p, err := NewParallel(core.Config{Capacity: 400, Seed: 17}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(stream[:3000])
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// One firing: exactly one shard panics (whichever drains first); its
	// exact recovery keeps the merged result bit-identical.
	armFaults(t, 1, "engine.shard.drain:panic:times=1")
	p.ProcessBatch(stream[3000:])
	m, err := p.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fault.Disarm()
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if p.Degraded() {
		t.Fatal("exact multi-shard recovery should not degrade")
	}

	want, err := NewParallel(core.Config{Capacity: 400, Seed: 17}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	want.ProcessBatch(stream)
	wm, err := want.Merge()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantZ, _ := signature(t, wm)
	keys, z, _ := signature(t, m)
	if z != wantZ || len(keys) != len(wantKeys) {
		t.Fatalf("merged sample diverged after recovery: z %v vs %v, len %d vs %d", z, wantZ, len(keys), len(wantKeys))
	}
	for i := range keys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("merged sample diverged at edge %d", i)
		}
	}
}
