package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gps/internal/core"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/randx"
)

// queryReference is the window query without cuts or cached runs: each
// retired pane overlapping the window, and the live pane's snapshot, is
// trimmed by trimPane, the trimmed samplers are merged with core.Merge, and
// the edge total is summed through InclusionProb. The whole query holds
// w.mu. Query must match it bit for bit.
func queryReference(w *Windowed, win uint64) (WindowEstimates, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return WindowEstimates{}, errors.New("engine: Query on closed Windowed")
	}
	if win == 0 {
		win = w.cfg.Window
	}
	if win > w.cfg.Window {
		return WindowEstimates{}, fmt.Errorf("engine: window %d exceeds the configured maximum %d", win, w.cfg.Window)
	}
	var cut uint64
	if w.horizon > win {
		cut = w.horizon - win
	}
	var samplers []*core.Sampler
	for _, p := range w.retired {
		if (p.idx+1)*w.cfg.PaneWidth <= cut {
			continue
		}
		samplers = append(samplers, trimPane(p.s, cut))
	}
	activeSnap, err := w.active.Snapshot()
	if err != nil {
		return WindowEstimates{}, err
	}
	samplers = append(samplers, trimPane(activeSnap, cut))
	merged, err := core.Merge(samplers, core.Config{
		Capacity: w.cfg.Capacity,
		Weight:   w.cfg.Weight,
		Seed:     randx.Mix64(w.cfg.Seed ^ 0xD6E8FEB86659FD93),
	})
	if err != nil {
		return WindowEstimates{}, err
	}
	res := WindowEstimates{
		Estimates: core.EstimatePost(merged),
		Window:    win,
		Horizon:   w.horizon,
		Panes:     len(samplers),
		Threshold: merged.Threshold(),
	}
	merged.Reservoir().ForEachEdge(func(e graph.Edge) bool {
		if q, ok := merged.InclusionProb(e); ok && q > 0 {
			res.Edges += 1 / q
		}
		return true
	})
	return res, nil
}

// trimPane returns a sampler holding only s's in-window edges (stored event
// time beyond cut, or untimed): s itself when nothing is out of window,
// otherwise a clone with the out-of-window edges deleted through the
// turnstile path, which leaves the survivors' inclusion probabilities as
// they were.
func trimPane(s *core.Sampler, cut uint64) *core.Sampler {
	if cut == 0 {
		return s
	}
	// The heap (Edges) carries event times; the adjacency index does not.
	var old []graph.Edge
	for _, e := range s.Reservoir().Edges() {
		if e.TS != 0 && e.TS <= cut {
			old = append(old, e)
		}
	}
	if len(old) == 0 {
		return s
	}
	c := s.Clone()
	for _, e := range old {
		c.Process(e.AsDeletion())
	}
	return c
}

// windowBits flattens every field of a WindowEstimates, the embedded
// Estimates included, to its bits, so a new field is compared without
// touching the tests.
func windowBits(t *testing.T, e WindowEstimates) []uint64 {
	t.Helper()
	var out []uint64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := range v.NumField() {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				walk(f)
			case reflect.Float64:
				out = append(out, math.Float64bits(f.Float()))
			case reflect.Int:
				out = append(out, uint64(f.Int()))
			case reflect.Uint64:
				out = append(out, f.Uint())
			case reflect.Bool:
				out = append(out, map[bool]uint64{true: 1}[f.Bool()])
			default:
				t.Fatalf("%s field %s has unhandled kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	walk(reflect.ValueOf(e))
	return out
}

func requireSameWindowBits(t *testing.T, what string, got, want WindowEstimates) {
	t.Helper()
	if !slices.Equal(windowBits(t, got), windowBits(t, want)) {
		t.Fatalf("%s: Query differs from queryReference:\n got %+v\nwant %+v", what, got, want)
	}
}

// randomWindowStream returns n turnstile records over nodes [0, nodes): an
// untimed prefix, then inserts whose event times rise by 0–3 a record,
// mixed with late arrivals (up to late units behind the horizon), untimed
// stragglers and deletions of earlier inserts anywhere in the stream, so
// that many hit retired panes. Every edge is inserted at most once.
func randomWindowStream(rng *randx.RNG, n, nodes int, late uint64) []graph.Edge {
	seen := make(map[uint64]bool, n)
	var inserted []graph.Edge
	out := make([]graph.Edge, 0, n)
	ts := uint64(1)
	prefix := n / 20
	for len(out) < n {
		if len(inserted) > 0 && rng.Intn(6) == 0 {
			i := rng.Intn(len(inserted))
			victim := inserted[i]
			inserted[i] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			out = append(out, victim.At(ts).AsDeletion())
			continue
		}
		a, b := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
		if a == b {
			continue
		}
		e := graph.NewEdge(a, b)
		if seen[e.Key()] {
			continue
		}
		seen[e.Key()] = true
		switch r := rng.Intn(30); {
		case len(out) < prefix || r == 0:
			// untimed
		case r < 3:
			e.TS = max(1, ts-min(ts-1, rng.Uint64n(late+1)))
		default:
			ts += rng.Uint64n(4)
			e.TS = ts
		}
		inserted = append(inserted, e)
		out = append(out, e)
	}
	return out
}

// TestWindowedQueryMatchesReference is the bit-identity property of the
// window query: over random pane geometries, weights and shard counts, on
// streams with an untimed prefix, late arrivals and deletions that hit
// retired panes, Query equals queryReference in every bit, for windows
// from below one pane up to the configured maximum, through rotation,
// pruning and a checkpoint restore halfway.
func TestWindowedQueryMatchesReference(t *testing.T) {
	var queries, rebuilt, narrow int
	for seed := uint64(1); seed <= 8; seed++ {
		rng := randx.New(seed * 0x9E37)
		pane := 10 + rng.Uint64n(60)
		cfg := WindowConfig{
			Capacity:  12 + rng.Intn(80),
			Seed:      seed,
			Shards:    1 + rng.Intn(3),
			PaneWidth: pane,
			Window:    pane*(1+rng.Uint64n(4)) + rng.Uint64n(pane),
		}
		weight := "uniform"
		if seed%2 == 0 {
			cfg.Weight, weight = core.TriangleWeight, "triangle"
		}
		records := randomWindowStream(rng, 1200, 60+rng.Intn(100), 2*cfg.Window)
		w, err := NewWindowed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		half := len(records) / 2
		for lo := 0; lo < len(records); {
			hi := min(len(records), lo+1+rng.Intn(90))
			if lo < half && hi >= half {
				hi = half
			}
			if err := w.ProcessBatch(records[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
			if lo == half {
				// Continue on a restored chain, whose panes have no runs.
				var doc bytes.Buffer
				if _, err := w.WriteCheckpoint(&doc, weight); err != nil {
					t.Fatal(err)
				}
				w.Close()
				if w, _, err = ReadWindowedCheckpoint(&doc, nil); err != nil {
					t.Fatal(err)
				}
			}
			wins := []uint64{0, cfg.Window, 1 + rng.Uint64n(pane-1), 1 + rng.Uint64n(cfg.Window)}
			for _, win := range wins {
				for _, p := range w.retired {
					if applied, _ := p.s.Deletions(); p.run != nil && applied != p.runApplied {
						rebuilt++
					}
				}
				got, err := w.Query(win)
				if err != nil {
					t.Fatal(err)
				}
				want, err := queryReference(w, win)
				if err != nil {
					t.Fatal(err)
				}
				requireSameWindowBits(t, fmt.Sprintf("seed %d, %d records, window %d", seed, lo, win), got, want)
				queries++
				if win != 0 && win < pane {
					narrow++
				}
			}
		}
		w.Close()
	}
	t.Logf("%d queries, %d below one pane, %d pane runs rebuilt after deletions", queries, narrow, rebuilt)
	if rebuilt == 0 {
		t.Fatal("no query rebuilt a cached pane run: deletions never reached a retired pane")
	}
}

// TestWindowedConcurrentQueriesMatchReference runs Query on several
// goroutines while another feeds batches that rotate panes and fan
// deletions out to retired ones. Event times rise strictly from batch to
// batch, so each answer's Horizon names the batch boundary it saw; a
// second chain, fed the same batches, checks every answer against
// queryReference at that boundary.
func TestWindowedConcurrentQueriesMatchReference(t *testing.T) {
	base := dedupeEdges(gen.HolmeKim(300, 5, 0.4, 0xC0C))
	records, _ := turnstileWindowStream(base, 40)
	span := uint64(len(base))
	cfg := WindowConfig{Capacity: 60, Weight: core.TriangleWeight, Seed: 17, Shards: 2,
		PaneWidth: span / 16, Window: span / 4}
	var batches [][]graph.Edge
	for lo := 0; lo < len(records); lo += 40 {
		batches = append(batches, records[lo:min(len(records), lo+40)])
	}
	wins := []uint64{0, cfg.PaneWidth / 2, cfg.Window / 2}

	w, err := NewWindowed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	type answer struct {
		win uint64
		est WindowEstimates
	}
	var (
		answered atomic.Int64
		fed      atomic.Bool
		mu       sync.Mutex
		answers  []answer
		wg       sync.WaitGroup
	)
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; !fed.Load(); i++ {
				win := wins[i%len(wins)]
				est, err := w.Query(win)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, answer{win, est})
				mu.Unlock()
				answered.Add(1)
			}
		}()
	}
	for _, b := range batches {
		if err := w.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		// Each goroutine has at most one query in flight when the batch
		// ends, so of the next 4 answers at least one began after it:
		// every boundary gets an answer.
		for n := answered.Load() + 4; answered.Load() < n && !t.Failed(); {
			runtime.Gosched()
		}
	}
	fed.Store(true)
	wg.Wait()

	// Replay: the boundary after batch i has horizon horizons[i].
	boundary := map[uint64]int{0: 0}
	var horizon uint64
	for i, b := range batches {
		for _, e := range b {
			horizon = max(horizon, e.TS)
		}
		if _, dup := boundary[horizon]; dup {
			t.Fatalf("batch %d does not raise the horizon", i)
		}
		boundary[horizon] = i + 1
	}
	byBoundary := map[int][]answer{}
	for _, a := range answers {
		at, ok := boundary[a.est.Horizon]
		if !ok {
			t.Fatalf("answer with horizon %d matches no batch boundary", a.est.Horizon)
		}
		byBoundary[at] = append(byBoundary[at], a)
	}
	for at := 1; at <= len(batches); at++ {
		if len(byBoundary[at]) == 0 {
			t.Fatalf("no answer saw batch boundary %d", at)
		}
	}
	ref, err := NewWindowed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for at := 0; at <= len(batches); at++ {
		if at > 0 {
			if err := ref.ProcessBatch(batches[at-1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range byBoundary[at] {
			want, err := queryReference(ref, a.win)
			if err != nil {
				t.Fatal(err)
			}
			requireSameWindowBits(t, fmt.Sprintf("boundary %d, window %d", at, a.win), a.est, want)
		}
	}
	t.Logf("%d answers over %d of %d batch boundaries", len(answers), len(byBoundary), len(batches)+1)
}

// TestWindowedQueryHistograms: one window query moves the count of each
// window query stage histogram by one.
func TestWindowedQueryHistograms(t *testing.T) {
	w, err := NewWindowed(WindowConfig{Capacity: 50, Seed: 3, Shards: 2, PaneWidth: 20, Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg, obs.Label{Key: "stream", Value: "win"})
	var batch []graph.Edge
	for ts := uint64(1); ts <= 100; ts++ {
		batch = append(batch, graph.NewEdgeAt(graph.NodeID(ts), graph.NodeID(ts+1), ts))
	}
	if err := w.ProcessBatch(batch); err != nil {
		t.Fatal(err)
	}
	names := []string{"gps_window_query_lock_seconds", "gps_window_query_merge_seconds", "gps_window_query_estimate_seconds"}
	counts := func() []float64 {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, _, err := obs.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("window exposition fails lint: %v", err)
		}
		var out []float64
		for _, name := range names {
			v, ok := scrapeValue(buf.String(), name+`_count{stream="win"}`)
			if !ok {
				t.Fatalf("%s_count not in scrape:\n%s", name, buf.String())
			}
			out = append(out, v)
		}
		return out
	}
	before := counts()
	if _, err := w.Query(0); err != nil {
		t.Fatal(err)
	}
	after := counts()
	for i, name := range names {
		if after[i] != before[i]+1 {
			t.Fatalf("%s_count %v → %v, want one more", name, before[i], after[i])
		}
	}
}

// BenchmarkWindowQuery times Query at the live workload's geometry: m =
// 5000, triangle weight, 2 shards, panes of 50K records and a 200K window,
// over copies of an R-MAT scale-15 graph on disjoint node ranges with every
// 8th record a deletion of the insert 1024 back. Between timed queries one
// untimed batch of 4096 records is ingested and drained, so the live
// pane's snapshot is dirty on every query and deletions keep reaching
// retired panes, as they do while the workload runs. The means of the
// query's stage histograms are reported beside the total.
func BenchmarkWindowQuery(b *testing.B) {
	const window, pane, batch, every, lag = 200_000, 50_000, 4096, 8, 1024
	base := gen.RMAT(15, 16, 0.57, 0.19, 0.19, 11)
	insert := func(k int) graph.Edge {
		e, off := base[k%len(base)], graph.NodeID(k/len(base))<<15
		return graph.NewEdge(e.U+off, e.V+off)
	}
	var pos, ins int
	records := func(n int) []graph.Edge { // the stream's next n records
		out := make([]graph.Edge, 0, n)
		for range n {
			pos++
			if pos%every == 0 && ins >= lag {
				out = append(out, insert(ins-lag).At(uint64(pos)).AsDeletion())
				continue
			}
			out = append(out, insert(ins).At(uint64(pos)))
			ins++
		}
		return out
	}
	w, err := NewWindowed(WindowConfig{Capacity: 5000, Weight: core.TriangleWeight, Seed: 1, Shards: 2,
		PaneWidth: pane, Window: window})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	// Fill the window and one pane more, so the query cuts its oldest pane.
	if err := w.ProcessBatch(records(window + pane)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		if err := w.ProcessBatch(records(batch)); err != nil {
			b.Fatal(err)
		}
		w.Engine().Arrivals() // the shards drain the batch before the clock runs
		b.StartTimer()
		if _, err := w.Query(window); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, st := range []struct {
		h    *obs.Histogram
		unit string
	}{{w.met.lockNS, "lock-ms/op"}, {w.met.mergeNS, "merge-ms/op"}, {w.met.estimateNS, "estimate-ms/op"}} {
		b.ReportMetric(st.h.Sum()*1e3/float64(b.N), st.unit)
	}
}
