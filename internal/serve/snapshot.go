package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/core"
	"gps/internal/fault"
	"gps/internal/obs"
)

// snapshot is one immutable query view: a merged sampler frozen at a
// stream position, its pre-computed Algorithm 2 estimates, when it was
// taken, and whether the engine was degraded at that point (a shard had
// lost edges to a lossy recovery). Any number of goroutines may read it
// concurrently; nothing ever mutates it.
type snapshot struct {
	sampler  *core.Sampler
	est      core.Estimates
	taken    time.Time
	degraded bool
	// seq numbers the cache's installs from 1 up, so an SSE subscriber
	// can skip a snapshot it was already sent.
	seq uint64
}

// errRefreshDeadline is returned when a refresh misses the deadline and no
// previous snapshot exists to fall back on.
var errRefreshDeadline = errors.New("snapshot refresh deadline exceeded and no cached snapshot to serve")

// snapshotCache serves staleness-bounded snapshots with single-flight
// refresh: readers whose bound is satisfied by the current snapshot load
// it lock-free; readers that need a fresher one join the in-flight
// refresh — the first of them starts it on a background goroutine, the
// rest wait on its completion channel. A snapshot also satisfies any
// bound when the stream position has not moved since it was taken — a
// forced-fresh query on an idle stream is free instead of rebuilding an
// identical snapshot.
//
// Running the refresh off the request goroutine is what makes graceful
// degradation possible: a reader with a deadline that expires mid-refresh
// falls back to the previous snapshot (flagged degraded) — or sheds with
// an error when none exists — while the refresh keeps running and
// installs its result for the next reader. Invalidation bumps a
// generation counter so a refresh that started before a flush can never
// install (or hand out) a snapshot that misses the flushed writes.
//
// The cache keeps the previous snapshot alive across a refresh: the
// engine's dirty-shard tracking makes the snapshot itself cheap when
// little has changed, and when the refreshed sampler turns out to cover
// the same arrivals as its predecessor (only duplicate edges came in), the
// predecessor's Algorithm 2 estimates are reused instead of recomputed —
// the post-stream scan is the dominant cost of a refresh.
type snapshotCache struct {
	take     func() (*core.Sampler, error)
	position func() uint64 // edges handed to the sampler so far
	degraded func() bool   // engine lossy-recovery flag, stamped per snapshot
	cur      atomic.Pointer[snapshot]

	// mu guards gen and inflight; unlike earlier revisions it is NOT held
	// across the refresh itself.
	mu       sync.Mutex
	gen      uint64     // bumped by invalidate; a refresh from an older gen discards
	inflight *refreshOp // the single in-flight refresh, nil when idle
	installs uint64     // snapshots installed so far, the last one's seq

	// onInstall, when set, is called (outside mu) with every snapshot that
	// actually installs — the snapshot-epoch feed the SSE subscription layer
	// fans out. Superseded refreshes never fire it, so subscribers only ever
	// see snapshots that queries could also have been served.
	onInstall func(*snapshot)

	met cacheMetrics
}

// refreshOp is one background refresh: done closes when it finishes, after
// which exactly one of snap/err is meaningful — or both nil when an
// invalidation superseded the refresh and waiters must retry.
type refreshOp struct {
	done chan struct{}
	snap *snapshot
	err  error
}

// cacheMetrics counts how the cache answered: hits (served an existing
// snapshot), refreshes (took a new one), forced-fresh demands (max_stale=0),
// refreshes cheap enough to reuse the previous estimates, and deadline
// expiries served from the stale fallback; estimate times the Algorithm 2
// run of each refresh that computes estimates. The server registers them;
// the cache records them.
type cacheMetrics struct {
	hits       *obs.Counter
	refreshes  *obs.Counter
	forced     *obs.Counter
	estReuse   *obs.Counter
	staleServe *obs.Counter
	estimate   *obs.Histogram // core.EstimatePost per refresh, ns
}

func newSnapshotCache(take func() (*core.Sampler, error), position func() uint64, degraded func() bool) *snapshotCache {
	if degraded == nil {
		degraded = func() bool { return false }
	}
	return &snapshotCache{
		take:     take,
		position: position,
		degraded: degraded,
		met: cacheMetrics{
			hits:       obs.NewCounter(),
			refreshes:  obs.NewCounter(),
			forced:     obs.NewCounter(),
			estReuse:   obs.NewCounter(),
			staleServe: obs.NewCounter(),
			estimate:   obs.NewHistogram(obs.Latency()),
		},
	}
}

// fresh reports whether s still satisfies the staleness bound: young
// enough, or provably current because no edges were processed since it was
// taken. (Streams carrying duplicate edges advance the processed count
// without advancing Arrivals, which only costs a conservative refresh.)
func (c *snapshotCache) fresh(s *snapshot, maxStale time.Duration) bool {
	return time.Since(s.taken) <= maxStale || s.est.Arrivals == c.position()
}

// get returns a snapshot no older than maxStale. A non-zero deadline
// bounds how long the caller waits for a refresh: past it, the previous
// snapshot is served with stale=true (the caller flags the response
// degraded), or errRefreshDeadline when there is none. deadline <= 0
// waits indefinitely, preserving strict freshness.
func (c *snapshotCache) get(maxStale, deadline time.Duration) (s *snapshot, stale bool, err error) {
	if maxStale == 0 {
		c.met.forced.Inc()
	}
	if s := c.cur.Load(); s != nil && c.fresh(s, maxStale) {
		c.met.hits.Inc()
		return s, false, nil
	}
	var expired <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		expired = t.C
	}
	for {
		c.mu.Lock()
		// A refresh that completed while this reader was joining may
		// already satisfy the bound.
		if s := c.cur.Load(); s != nil && c.fresh(s, maxStale) {
			c.mu.Unlock()
			c.met.hits.Inc()
			return s, false, nil
		}
		op := c.inflight
		if op == nil {
			op = &refreshOp{done: make(chan struct{})}
			c.inflight = op
			c.met.refreshes.Inc()
			go c.refresh(op, c.gen)
		}
		c.mu.Unlock()
		select {
		case <-op.done:
			if op.err != nil {
				return nil, false, op.err
			}
			if op.snap != nil {
				return op.snap, false, nil
			}
			// Superseded by an invalidation: retry against the new
			// generation so the caller never reads pre-flush state.
		case <-expired:
			if s := c.cur.Load(); s != nil {
				c.met.staleServe.Inc()
				return s, true, nil
			}
			return nil, false, errRefreshDeadline
		}
	}
}

// refresh performs one engine snapshot + estimate on its own goroutine and
// installs the result — unless the cache generation moved (a flush
// invalidated concurrently), in which case the result is discarded and
// waiters retry.
func (c *snapshotCache) refresh(op *refreshOp, gen uint64) {
	defer close(op.done)
	// Stamp the age before the engine snapshot: the data is frozen at the
	// barrier inside take(), so stamping afterwards would under-report the
	// snapshot's age by the whole snapshot+estimate duration.
	taken := time.Now()
	prev := c.cur.Load()
	sampler, err := c.take()
	if err != nil {
		c.finish(op, nil, err)
		return
	}
	degraded := c.degraded()
	if fault.Enabled() {
		// Between the engine barrier and the install: latency rules here
		// hold the refresh open past query deadlines (exercising the
		// stale-fallback path); error rules fail the refresh outright.
		if ferr := fault.Hit(fault.SnapshotRefresh); ferr != nil {
			c.finish(op, nil, ferr)
			return
		}
	}
	var est core.Estimates
	if prev != nil && prev.est.Arrivals == sampler.Arrivals() &&
		prev.est.SampledEdges == sampler.Reservoir().Len() {
		// No distinct edge reached the sampler since the previous
		// snapshot (the stream only replayed duplicates), so the engine —
		// deterministic in the edges fed — produced an identical
		// reservoir; the previous Algorithm 2 estimates are exact for it.
		est = prev.est
		c.met.estReuse.Inc()
	} else {
		start := time.Now()
		est = core.EstimatePost(sampler)
		c.met.estimate.ObserveSince(start)
	}
	c.finishInstall(op, &snapshot{sampler: sampler, est: est, taken: taken, degraded: degraded}, gen)
}

// finish publishes a refresh outcome that installs nothing.
func (c *snapshotCache) finish(op *refreshOp, s *snapshot, err error) {
	c.mu.Lock()
	op.snap, op.err = s, err
	c.inflight = nil
	c.mu.Unlock()
}

// finishInstall publishes a successful refresh, installing the snapshot
// only if no invalidation superseded the refresh's generation.
func (c *snapshotCache) finishInstall(op *refreshOp, s *snapshot, gen uint64) {
	c.mu.Lock()
	installed := c.gen == gen
	if installed {
		c.installs++
		s.seq = c.installs
		c.cur.Store(s)
		op.snap = s
	}
	c.inflight = nil
	c.mu.Unlock()
	if installed && c.onInstall != nil {
		c.onInstall(s)
	}
}

// invalidate drops the cached snapshot unless it already reflects the
// current stream position, and bumps the generation so an in-flight
// refresh that began before the invalidation can neither install nor be
// handed to waiters. The flush endpoint calls it to make
// flush-then-estimate read-your-writes at any staleness bound.
func (c *snapshotCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.cur.Load(); s != nil && s.est.Arrivals == c.position() {
		return // already current: a racing refresh can only be newer
	}
	c.cur.Store(nil)
	c.gen++
}

// current returns the cached snapshot (nil before the first query), for
// scrape-time estimator telemetry: the snapshot is immutable, so reading
// its sampler's counters is race-free.
func (c *snapshotCache) current() *snapshot { return c.cur.Load() }
