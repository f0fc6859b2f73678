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
	"gps/internal/obs"
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
// extracted as compact (priority, key, slot) records and radix-sorted, one
// input per goroutine. A k-way merge of the sorted runs then walks the union
// from the highest priority down (ties by ascending edge key, then by
// input order), offering each candidate to an order.Filler until the
// merged sample is full. Finally the Filler loads the heap while
// graph.BuildAdjacency indexes the stored edges on a second goroutine.
// The result is bit-identical to pushing the candidates one by one, in
// that order, into a fresh sampler: the same arena slots, heap order,
// dense node ids, neighbor and slot runs, threshold and counters. The
// package tests check this against exactly that loop (mergeReference).
func Merge(samplers []*Sampler, cfg Config) (*Sampler, error) {
	m, total, err := mergeShell(samplers, cfg)
	if err != nil {
		return nil, err
	}
	// A candidate left out of the merged sample joins the threshold
	// competition exactly as if it had been evicted — and counts as an
	// eviction, keeping accepts-evicts equal to the fill.
	exclude := func(priority float64, n int) {
		if obs.Enabled {
			m.evicts += uint64(n)
		}
		if priority > m.zstar {
			m.zstar = priority
		}
	}

	runs := sortedRuns(samplers, total)
	heads := make([]int, len(runs))
	n := min(total, cfg.Capacity)
	fill := m.res.heap.Filler(n)
	edges := make([]graph.Edge, 0, n)
	slots := make([]int32, 0, n)
	left := total
	for ; left > 0 && len(slots) < cfg.Capacity; left-- {
		in := nextRun(runs, heads)
		rec := runs[in][heads[in]]
		heads[in]++
		if slot, ok := fill.Offer(rec.key, samplers[in].res.heap.BySlot(rec.slot)); ok {
			edges = append(edges, graph.EdgeFromKey(rec.key))
			slots = append(slots, slot)
		} else {
			exclude(rec.priority, 1)
		}
	}
	if left > 0 {
		// The merged sample is full: every unread record is excluded, and
		// the highest of them heads some run.
		in := nextRun(runs, heads)
		exclude(runs[in][heads[in]].priority, left)
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

// sortedRuns extracts the records of every input into one shared array
// and sorts each input's run, on up to GOMAXPROCS goroutines. The inputs
// are only read, so they may be shared with concurrent merges.
func sortedRuns(samplers []*Sampler, total int) [][]mergeRecord {
	recs := make([]mergeRecord, total)
	runs := make([][]mergeRecord, len(samplers))
	longest := 0
	for i, s := range samplers {
		n := s.res.Len()
		runs[i], recs = recs[:n:n], recs[n:]
		longest = max(longest, n)
	}
	var next atomic.Int64
	work := func() {
		var scratch []mergeRecord // one per goroutine, for its longest run
		for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
			h, run := samplers[i].res.heap, runs[i]
			for j := range run {
				slot := h.SlotAt(j)
				e := h.BySlot(slot)
				run[j] = mergeRecord{priority: e.Priority, key: e.Edge.Key(), slot: slot}
			}
			if scratch == nil {
				scratch = make([]mergeRecord, longest)
			}
			sortRecords(run, scratch)
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
// order, the lowest index among equal heads; at least one run must have
// records left. A linear scan suits the few runs a merge has: one per
// shard or pane.
func nextRun(runs [][]mergeRecord, heads []int) int {
	best := -1
	for i, run := range runs {
		if heads[i] == len(run) {
			continue
		}
		if best < 0 || compareRecords(run[heads[i]], runs[best][heads[best]]) < 0 {
			best = i
		}
	}
	return best
}
