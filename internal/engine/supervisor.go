package engine

import (
	"fmt"
	"time"

	"gps/internal/core"
	"gps/internal/fault"
	"gps/internal/graph"
)

// Shard supervision: each shard consumer runs under a recover loop that
// survives panics in the drain path (a corrupted batch, a bug in a weight
// function, an injected fault) instead of crashing the process with the
// other P-1 healthy shards.
//
// # Recovery
//
// The ring protocol makes exact recovery possible surprisingly often: the
// consumer publishes head only after a span is fully processed, so a panic
// leaves the failing span — and everything after it — still queued. If the
// shard's last immutable snapshot clone was taken at the current consumer
// position (cloneHead == head: nothing drained since the clone), swapping
// in a copy of the clone and letting the consumer replay the backlog
// reproduces the pre-panic sampler bit for bit; estimates are then as if
// the panic never happened.
//
// When edges were drained after the clone (cloneHead < head) those edges
// are gone — the clone is still the best available state, so the
// supervisor restores it, counts the gap as lost, and marks the shard
// degraded (sticky: the sampler has permanently diverged from the
// fault-free run). A shard that has never been cloned rebuilds from its
// original config as a last resort, losing its whole history.
//
// # Quarantine
//
// Replay reprocesses the span that panicked, so a deterministically
// poisonous batch would panic forever. The supervisor tracks consecutive
// panics with no successfully drained span in between; past
// maxPanicStreak it quarantines the backlog — discards everything queued
// (counted as lost, degrading the shard) — and resumes on fresh traffic.
//
// # Synchronization
//
// Recovery runs on the shard's own goroutine. Barriers cannot observe a
// half-recovered shard: a panic strikes mid-span, so head < tail for the
// whole recovery, and drainWait blocks until the recovered consumer (or
// the quarantine skip) advances head — the sampler swap is sequenced
// before that atomic store, so any barrier that saw the ring drained also
// sees the new sampler. Clone bookkeeping is mutated under p.mu like the
// snapshot machinery it shares.

// maxPanicStreak is how many consecutive panics (with no span drained in
// between) a shard tolerates before quarantining its ring backlog.
const maxPanicStreak = 8

// runShard is the supervised consumer loop for one shard: consume until
// the ring closes, recovering and restoring the sampler after any panic.
func (p *Parallel) runShard(idx int, sh *shard) {
	defer p.wg.Done()
	streak := 0
	for {
		if p.consumeShard(sh, &streak) {
			return
		}
		p.recoverShard(idx, sh, &streak)
	}
}

// consumeShard runs the ring consumer, reporting true on a clean exit
// (ring closed and drained) and false when the drain path panicked.
func (p *Parallel) consumeShard(sh *shard, streak *int) (done bool) {
	defer func() {
		if rec := recover(); rec != nil {
			*streak++
			sh.lastPanic.Store(fmt.Sprint(rec))
			done = false
		}
	}()
	sh.ring.consume(func(edges []graph.Edge) {
		if fault.Enabled() {
			if err := fault.Hit(fault.ShardDrain); err != nil {
				// The drain path has no error channel; an injected error
				// here escalates to the same panic path a real one would.
				panic(err)
			}
		}
		start := time.Now()
		sh.s.ProcessBatch(edges)
		*streak = 0
		p.met.drainNS.ObserveSince(start)
		p.met.drainEdges.Observe(uint64(len(edges)))
	})
	return true
}

// recoverShard restores the shard sampler after a panic: from the last
// immutable clone when one exists (exact when nothing was drained since
// the clone, lossy otherwise), or from scratch as a last resort. It runs
// on the shard goroutine with head frozen mid-span, so barriers wait out
// the whole recovery.
func (p *Parallel) recoverShard(idx int, sh *shard, streak *int) {
	sh.restarts.Add(1)
	p.restartsTotal.Add(1)

	p.mu.Lock()
	head := sh.ring.head.Load()
	var restored *core.Sampler
	if sh.lastClone != nil {
		if gap := head - sh.cloneHead; gap > 0 {
			// Edges drained after the clone are unrecoverable: the clone
			// predates them and the ring no longer holds them.
			sh.lost.Add(gap)
			sh.degraded.Store(true)
		}
		restored = sh.lastClone.s.Clone()
		// The restored sampler's content equals lastClone at the current
		// consumer position — re-anchor so a future recovery counts only
		// newly drained edges as lost.
		sh.cloneHead = head
	} else {
		// Never cloned: rebuild from the shard's original config. Every
		// edge the consumer ever drained — plus any restored checkpoint
		// history — is lost.
		fresh, err := core.NewSampler(sh.cfg)
		if err != nil {
			// The config built a sampler once; failing now means the
			// process state is beyond repair.
			p.mu.Unlock()
			panic(fmt.Sprintf("engine: shard %d rebuild: %v", idx, err))
		}
		if lm := p.landmarkVal.Load(); lm != 0 && p.decay {
			if err := fresh.SetDecayLandmark(lm); err != nil {
				p.mu.Unlock()
				panic(fmt.Sprintf("engine: shard %d rebuild landmark: %v", idx, err))
			}
		}
		if lost := sh.baseProcessed + head; lost > 0 {
			sh.lost.Add(lost)
			sh.degraded.Store(true)
		}
		// With nothing ever drained (head == 0, no restored history) the
		// rebuild is exact, not lossy: the fresh sampler is seeded like the
		// original and the whole backlog is still queued for replay.
		sh.baseProcessed = 0 // the rebuilt sampler starts empty
		restored = fresh
	}
	sh.s = restored
	if *streak >= maxPanicStreak {
		// Deterministically poisonous backlog: replaying it would panic
		// forever. Discard it (the skip's head store publishes the sampler
		// swap to any waiting barrier) and resume on fresh traffic. The
		// loss is recorded before that store, so a barrier it releases
		// never reads stale health.
		sh.ring.skipAll(func(skipped uint64) {
			sh.lost.Add(skipped)
			sh.degraded.Store(true)
		})
		*streak = 0
	}
	p.mu.Unlock()
}

// ShardHealth is one shard's self-healing state, reported by Health.
type ShardHealth struct {
	// Restarts counts drain-path panics the supervisor recovered.
	Restarts uint64 `json:"restarts"`
	// LostEdges counts edges dropped by lossy recoveries: drained-but-
	// unrecoverable gaps, quarantined backlogs, and from-scratch rebuilds.
	LostEdges uint64 `json:"lost_edges"`
	// Degraded is sticky: some recovery lost edges, so this shard's
	// sampler has permanently diverged from the fault-free run.
	Degraded bool `json:"degraded"`
	// LastPanic is the message of the most recent recovered panic.
	LastPanic string `json:"last_panic,omitempty"`
}

// Health reports the per-shard self-healing state and whether any shard
// is degraded (lost edges to a recovery — estimates are still served but
// no longer bit-identical to a fault-free run). Lock-free.
func (p *Parallel) Health() (shards []ShardHealth, degraded bool) {
	shards = make([]ShardHealth, len(p.shards))
	for i, sh := range p.shards {
		shards[i] = ShardHealth{
			Restarts:  sh.restarts.Load(),
			LostEdges: sh.lost.Load(),
			Degraded:  sh.degraded.Load(),
		}
		if msg, ok := sh.lastPanic.Load().(string); ok {
			shards[i].LastPanic = msg
		}
		degraded = degraded || shards[i].Degraded
	}
	return shards, degraded
}

// Degraded reports whether any shard has lost edges to a recovery.
// Lock-free; serve uses it to flag estimates.
func (p *Parallel) Degraded() bool {
	for _, sh := range p.shards {
		if sh.degraded.Load() {
			return true
		}
	}
	return false
}

// Restarts returns the total shard consumer restarts across all shards.
func (p *Parallel) Restarts() uint64 { return p.restartsTotal.Load() }

// LostEdges returns the total edges lost to lossy recoveries.
func (p *Parallel) LostEdges() uint64 {
	var total uint64
	for _, sh := range p.shards {
		total += sh.lost.Load()
	}
	return total
}
