package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"gps/internal/graph"
)

// Merge combines the reservoirs of samplers that each processed a disjoint
// substream into a single sampler over the union stream, using priority
// sampling's mergeability: every edge's priority r(k) = w(k)/u(k) is a
// function of the edge and its own uniform draw, so the m highest-priority
// edges of the union of the shard reservoirs are exactly the m
// highest-priority edges of the whole stream, and the merged threshold is
// the largest priority excluded anywhere — the maximum of the shard
// thresholds and of the priorities dropped by the merge itself.
//
// This identity is exact when weights are stream-independent (UniformWeight,
// or any W(k) that ignores the reservoir argument). For topology-dependent
// weights such as TriangleWeight each shard evaluates W(k,K̂_p) against its
// own partial reservoir, so the merged sample is an approximation whose
// weights reflect per-shard topology; see the engine package for the
// semantics discussion.
//
// The input samplers must hold disjoint edge sets (guaranteed when the
// stream was hash-partitioned by edge identity). If an edge nonetheless
// appears in several reservoirs, the highest-priority copy wins and the
// others are treated as excluded mass. The merged sampler has capacity
// cfg.Capacity, carries summed arrival/duplicate counts, and is a fully
// functional sampler: it can keep processing edges or feed any estimator.
//
// The merge is a bulk build in three steps. Each input's entries are
// extracted as compact (priority, key, slot) records and radix-sorted into
// a Run, one input per goroutine. A k-way merge of the runs then walks the
// union from the highest priority down (ties by ascending edge key, then
// by input order), offering each candidate to an order.Filler until the
// merged sample is full. Finally the Filler loads the heap while
// graph.BuildAdjacency indexes the stored edges on a second goroutine.
// The result is bit-identical to pushing the candidates one by one, in
// that order, into a fresh sampler: the same arena slots, heap order,
// dense node ids, neighbor and slot runs, threshold and counters. The
// package tests check this against exactly that loop (mergeReference).
func Merge(samplers []*Sampler, cfg Config) (*Sampler, error) {
	return MergeRuns(NewRuns(samplers), cfg, 0)
}

// MergeRuns is Merge over prebuilt runs, with a cut: it skips every record
// whose stored event time lies in (0, cut], and cut 0 skips none. A
// skipped record is neither offered nor excluded: it adds nothing to z*,
// and once the merged sample is full, the final exclusion takes the
// highest unread record the cut keeps. The result is, bit for bit, what
// deleting the skipped records from clones of the inputs through the
// turnstile path and merging those gives, apart from the deletion
// counters: a cut is no stream deletion, so they stay the inputs' sums.
// The survivors keep their weights, and so their inclusion probabilities,
// as a window boundary needs. Only a run whose smallest event time is at
// or below the cut is filtered; the others are read as they are.
func MergeRuns(runs []*Run, cfg Config, cut uint64) (*Sampler, error) {
	samplers := make([]*Sampler, len(runs))
	for i, r := range runs {
		samplers[i] = r.s
	}
	m, total, err := mergeShell(samplers, cfg)
	if err != nil {
		return nil, err
	}
	// A candidate left out of the merged sample joins the threshold
	// competition exactly as if it had been evicted — and counts as an
	// eviction, keeping accepts-evicts equal to the fill.
	exclude := func(priority float64, n int) {
		m.evicts += uint64(n)
		if priority > m.zstar {
			m.zstar = priority
		}
	}

	heads := make([]int, len(runs))
	for i, r := range runs {
		heads[i] = r.next(0, cut)
	}
	n := min(total, cfg.Capacity) // total counts the records the cut skips too
	fill := m.res.heap.Filler(n)
	edges := make([]graph.Edge, 0, n)
	slots := make([]int32, 0, n)
	for len(slots) < cfg.Capacity {
		in := nextRun(runs, heads)
		if in < 0 {
			break
		}
		r := runs[in]
		rec := r.recs[heads[in]]
		heads[in] = r.next(heads[in]+1, cut)
		if slot, ok := fill.Offer(rec.key, r.s.res.heap.BySlot(rec.slot)); ok {
			edges = append(edges, graph.EdgeFromKey(rec.key))
			slots = append(slots, slot)
		} else {
			exclude(rec.priority, 1)
		}
	}
	if in := nextRun(runs, heads); in >= 0 {
		// The merged sample is full: every unread record the cut keeps is
		// excluded, and the highest of them heads some run.
		left := 0
		for i, r := range runs {
			if !r.trims(cut) {
				left += len(r.recs) - heads[i]
				continue
			}
			for j := heads[i]; j < len(r.recs); j = r.next(j+1, cut) {
				left++
			}
		}
		exclude(runs[in].recs[heads[in]].priority, left)
	}
	// Size the node table for the largest input: the merged sample holds
	// about as many edges, mostly on the same nodes, and a table that
	// turns out small grows. The inputs' node sum, a strict bound, would
	// oversize it several times over when the inputs share their nodes, as
	// window panes do, and every merged snapshot and frozen pane keeps its
	// table.
	nodes := 0
	for _, s := range samplers {
		nodes = max(nodes, s.res.NumNodes())
	}
	// The heap and the adjacency index share no state: build them at once.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.res.adj = graph.BuildAdjacency(edges, slots, nodes)
	}()
	fill.Done()
	wg.Wait()
	return m, nil
}

// mergeShell validates the inputs of a merge and returns the merged
// sampler before any entry is placed — empty reservoir, summed counters,
// the largest input threshold, the shared decay landmark and the latest
// horizon — together with the number of entries the inputs hold.
func mergeShell(samplers []*Sampler, cfg Config) (*Sampler, int, error) {
	if len(samplers) == 0 {
		return nil, 0, errors.New("core: Merge requires at least one sampler")
	}
	m, err := NewSampler(cfg)
	if err != nil {
		return nil, 0, err
	}

	// Forward decay merges only between samplers that agree on the decay
	// function and landmark: priorities are comparable across shards exactly
	// when every boost used the same g. The merged horizon is the max.
	for _, s := range samplers {
		if s.decay != cfg.Decay {
			return nil, 0, fmt.Errorf("core: Merge decay config %+v disagrees with sampler's %+v", cfg.Decay, s.decay)
		}
		if s.landmarkSet {
			if !m.landmarkSet {
				m.landmark, m.landmarkSet = s.landmark, true
			} else if m.landmark != s.landmark {
				return nil, 0, fmt.Errorf("core: Merge landmark disagreement: %d vs %d (shards must share the decay landmark)",
					m.landmark, s.landmark)
			}
		}
		if s.lastTS > m.lastTS {
			m.lastTS = s.lastTS
		}
	}

	total := 0
	for _, s := range samplers {
		total += s.res.Len()
		if s.zstar > m.zstar {
			m.zstar = s.zstar
		}
		m.arrivals += s.arrivals
		m.duplicates += s.duplicates
		m.delApplied += s.delApplied
		m.delUnsampled += s.delUnsampled
		m.accepts += s.accepts
		m.evicts += s.evicts
	}
	return m, total, nil
}

// mergeRecord is the sort key of one input entry: its priority and edge
// key, and the arena slot it is read from once it wins a place.
type mergeRecord struct {
	priority float64
	key      uint64
	slot     int32
}

// compareRecords orders by priority descending, then by edge key.
func compareRecords(a, b mergeRecord) int {
	switch {
	case a.priority > b.priority:
		return -1
	case a.priority < b.priority:
		return 1
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// Run is one merge input in merge order: the live entries of a sampler
// as (priority, key, slot) records, highest priority first and equal
// priorities by ascending edge key, with the sampler the slots are read
// from and the smallest nonzero event time among the entries (0 when all
// are untimed). Merges only read a run, so any number of them may share
// one; it stays valid until its sampler next changes.
type Run struct {
	s     *Sampler
	recs  []mergeRecord
	minTS uint64
}

// NewRuns builds the run of every sampler, on up to GOMAXPROCS
// goroutines. The samplers are only read, so they may be shared with
// concurrent merges.
func NewRuns(samplers []*Sampler) []*Run {
	runs := make([]*Run, len(samplers))
	longest := 0
	for _, s := range samplers {
		longest = max(longest, s.res.Len())
	}
	var next atomic.Int64
	work := func() {
		var scratch []mergeRecord // one per goroutine, for its longest run
		for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
			s := samplers[i]
			h := s.res.heap
			r := &Run{s: s, recs: make([]mergeRecord, h.Len())}
			for j := range r.recs {
				slot := h.SlotAt(j)
				e := h.BySlot(slot)
				r.recs[j] = mergeRecord{priority: e.Priority, key: e.Edge.Key(), slot: slot}
				if ts := e.Edge.TS; ts != 0 && (r.minTS == 0 || ts < r.minTS) {
					r.minTS = ts
				}
			}
			if scratch == nil {
				scratch = make([]mergeRecord, longest)
			}
			sortRecords(r.recs, scratch)
			runs[i] = r
		}
	}
	var wg sync.WaitGroup
	for range min(len(runs), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return runs
}

// trims reports whether a cut leaves out any of the run's records.
func (r *Run) trims(cut uint64) bool { return r.minTS != 0 && r.minTS <= cut }

// next returns the first position at or after j whose record the cut
// keeps, or the run's length.
func (r *Run) next(j int, cut uint64) int {
	if !r.trims(cut) {
		return j
	}
	h := r.s.res.heap
	for ; j < len(r.recs); j++ {
		if ts := h.BySlot(r.recs[j].slot).Edge.TS; ts == 0 || ts > cut {
			break
		}
	}
	return j
}

// sortRecords puts one input's records, whose keys are distinct, into
// merge order, using scratch (at least as long as run) as the second
// buffer. A stable LSD radix sort with 8-bit digits orders the run by the
// complemented IEEE bits of the priority: priorities are positive and
// finite, so their bit patterns order like their values, subnormals
// included, and the complement turns ascending into descending. A digit
// every record shares is skipped, so priorities from a narrow range cost
// fewer passes. Stretches of equal priority are then put into key order by
// compareRecords.
func sortRecords(run, scratch []mergeRecord) {
	if len(run) < 2 {
		return
	}
	sortKey := func(r *mergeRecord) uint64 { return ^math.Float64bits(r.priority) }
	var counts [8][256]int
	for i := range run {
		k := sortKey(&run[i])
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	first := sortKey(&run[0])
	src, dst := run, scratch[:len(run)]
	for d := range counts {
		c := &counts[d]
		if c[byte(first>>(8*d))] == len(run) {
			continue // every record has this digit
		}
		start := 0
		for b, n := range c {
			c[b] = start
			start += n
		}
		shift := 8 * d
		for i := range src {
			b := byte(sortKey(&src[i]) >> shift)
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] {
		copy(run, src)
	}
	for lo := 0; lo < len(run); {
		hi := lo + 1
		for hi < len(run) && run[hi].priority == run[lo].priority {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(run[lo:hi], compareRecords)
		}
		lo = hi
	}
}

// nextRun returns the index of the run whose head comes first in merge
// order, the lowest index among equal heads, or -1 when every run is
// exhausted. A linear scan suits the few runs a merge has: one per shard
// or pane.
func nextRun(runs []*Run, heads []int) int {
	best := -1
	for i, r := range runs {
		run := r.recs
		if heads[i] == len(run) {
			continue
		}
		if best < 0 || compareRecords(run[heads[i]], runs[best].recs[heads[best]]) < 0 {
			best = i
		}
	}
	return best
}
