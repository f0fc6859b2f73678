package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gps/internal/graph"
	"gps/internal/order"
	"gps/internal/randx"
)

// mergeReference is the sequential merge Merge's bulk build replaced: it
// copies every input entry, sorts the copies by priority (descending, ties
// by ascending edge key) and pushes them one by one into the merged
// sampler until it is full. Merge must reproduce its result bit for bit
// whenever that result is well defined. It is not when several inputs hold
// one edge at the very same priority with different payloads: sort.Slice
// is not stable, so the reference's pick among them is unspecified.
func mergeReference(samplers []*Sampler, cfg Config) (*Sampler, error) {
	m, total, err := mergeShell(samplers, cfg)
	if err != nil {
		return nil, err
	}
	entries := make([]order.Entry, 0, total)
	for _, s := range samplers {
		for i := 0; i < s.res.Len(); i++ {
			entries = append(entries, *s.res.heap.At(i))
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Priority != entries[j].Priority {
			return entries[i].Priority > entries[j].Priority
		}
		return entries[i].Edge.Key() < entries[j].Edge.Key()
	})
	for _, ent := range entries {
		if m.res.Len() < cfg.Capacity && !m.res.Contains(ent.Edge) {
			m.res.insert(ent)
			continue
		}
		m.evicts++
		if ent.Priority > m.zstar {
			m.zstar = ent.Priority
		}
	}
	return m, nil
}

// requireSameBits fails unless a and b agree bit for bit on everything the
// merge builds: the heap arena, free list and order, the adjacency's dense
// tables and runs, the threshold, every counter, the decay clock, and every
// field of EstimatePost.
func requireSameBits(t *testing.T, a, b *Sampler) {
	t.Helper()
	aa, af, ah := a.res.heap.ExportState()
	ba, bf, bh := b.res.heap.ExportState()
	if !slices.EqualFunc(aa, ba, sameEntryBits) || !slices.Equal(af, bf) || !slices.Equal(ah, bh) {
		t.Fatalf("heap state differs: %d/%d arena slots, %d/%d freed, %d/%d live",
			len(aa), len(ba), len(af), len(bf), len(ah), len(bh))
	}
	an, afr, anb, asl := a.res.adj.ExportDense()
	bn, bfr, bnb, bsl := b.res.adj.ExportDense()
	if !slices.Equal(an, bn) || !slices.Equal(afr, bfr) ||
		!slices.EqualFunc(anb, bnb, slices.Equal) || !slices.EqualFunc(asl, bsl, slices.Equal) {
		t.Fatalf("adjacency dense state differs (%d/%d ids)", len(an), len(bn))
	}
	if a.res.adj.NumEdges() != b.res.adj.NumEdges() || a.res.adj.NumNodes() != b.res.adj.NumNodes() {
		t.Fatalf("adjacency counts differ")
	}
	if math.Float64bits(a.Threshold()) != math.Float64bits(b.Threshold()) {
		t.Fatalf("threshold %v != %v", a.Threshold(), b.Threshold())
	}
	type counters struct {
		arrivals, duplicates, accepts, evicts, applied, unsampled, lastTS, landmark uint64
		landmarkSet                                                                 bool
	}
	count := func(s *Sampler) counters {
		return counters{s.arrivals, s.duplicates, s.accepts, s.evicts, s.delApplied, s.delUnsampled,
			s.lastTS, s.landmark, s.landmarkSet}
	}
	if ca, cb := count(a), count(b); ca != cb {
		t.Fatalf("counters %+v != %+v", ca, cb)
	}
	if ea, eb := estimateBits(t, EstimatePost(a)), estimateBits(t, EstimatePost(b)); !slices.Equal(ea, eb) {
		t.Fatalf("EstimatePost differs:\n%+v\n%+v", EstimatePost(a), EstimatePost(b))
	}
}

func sameEntryBits(x, y order.Entry) bool {
	return x.Edge == y.Edge &&
		math.Float64bits(x.Weight) == math.Float64bits(y.Weight) &&
		math.Float64bits(x.Priority) == math.Float64bits(y.Priority)
}

// estimateBits flattens every field of an Estimates to its bits, so a new
// field is compared without touching this test.
func estimateBits(t *testing.T, e Estimates) []uint64 {
	t.Helper()
	v := reflect.ValueOf(e)
	out := make([]uint64, v.NumField())
	for i := range out {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			out[i] = math.Float64bits(f.Float())
		case reflect.Int:
			out[i] = uint64(f.Int())
		case reflect.Uint64:
			out[i] = f.Uint()
		case reflect.Bool:
			if f.Bool() {
				out[i] = 1
			}
		default:
			t.Fatalf("Estimates field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return out
}

// randomEdges returns n distinct random edges over nodes [0, nodes), with
// event times rising by 0–2 per edge from ts0 (0 leaves them untimed). A
// small node space gives high degrees and many shared endpoints.
func randomEdges(rng *randx.RNG, n, nodes int, ts0 uint64) []graph.Edge {
	seen := make(map[uint64]bool, n)
	out := make([]graph.Edge, 0, n)
	ts := ts0
	for len(out) < n {
		a, b := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
		if a == b {
			continue
		}
		e := graph.NewEdge(a, b)
		if seen[e.Key()] {
			continue
		}
		seen[e.Key()] = true
		if ts0 != 0 {
			ts += uint64(rng.Intn(3))
			e.TS = ts
		}
		out = append(out, e)
	}
	return out
}

// mergeInputs is one randomized family of merge inputs.
type mergeInputs struct {
	name   string
	cfg    Config // shared by the inputs and the merge; Capacity is swept
	inputs []*Sampler
}

func newMergeInputs(t *testing.T, seed uint64) []mergeInputs {
	t.Helper()
	rng := randx.New(seed)
	sampler := func(cfg Config, capacity int, seed uint64) *Sampler {
		cfg.Capacity, cfg.Seed = capacity, seed
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var out []mergeInputs

	// Disjoint hash shards, as the engine partitions a stream.
	for _, w := range []WeightFunc{UniformWeight, TriangleWeight} {
		cfg := Config{Weight: w}
		k := 1 + rng.Intn(4)
		in := make([]*Sampler, k)
		for i := range in {
			in[i] = sampler(cfg, 20+rng.Intn(80), seed+uint64(i))
		}
		for _, e := range randomEdges(rng, 300+rng.Intn(600), 40+rng.Intn(200), 0) {
			in[randx.Mix64(e.Key())%uint64(k)].Process(e)
		}
		out = append(out, mergeInputs{"shards", cfg, in})
	}

	// Overlapping panes: windows of one stream overlap, so an edge can sit
	// in several inputs at different priorities; a clone adds exact copies.
	{
		stream := randomEdges(rng, 600, 80, 0)
		var in []*Sampler
		for lo := 0; lo+200 <= len(stream); lo += 100 + rng.Intn(100) {
			s := sampler(Config{}, 30+rng.Intn(60), seed^uint64(lo))
			s.ProcessBatch(stream[lo : lo+200])
			in = append(in, s)
		}
		in = append(in, in[rng.Intn(len(in))].Clone())
		out = append(out, mergeInputs{"panes", Config{}, in})
	}

	// Priority ties between different edges: entries planted with
	// priorities from a handful of values and arbitrary payloads, over
	// disjoint edge sets (a shared edge at a shared priority is the one
	// case the reference leaves unspecified).
	{
		pool := randomEdges(rng, 400, 50, 0)
		k := 2 + rng.Intn(3)
		in := make([]*Sampler, k)
		for i := range in {
			in[i] = sampler(Config{}, len(pool), seed+uint64(i))
			in[i].zstar = float64(rng.Intn(3))
		}
		for _, e := range pool {
			s := in[rng.Intn(k)]
			w, p := 1+float64(rng.Intn(4)), float64(1+rng.Intn(5))
			w += rng.Uniform01() // an arbitrary payload: the merged entry must carry it
			rng.Uniform01()      // keeps the draws the later families are built from
			s.res.insert(order.Entry{Edge: e, Weight: w, Priority: p})
		}
		out = append(out, mergeInputs{"ties", Config{}, in})
	}

	// Decayed inputs that share a landmark.
	{
		cfg := Config{Decay: Decay{HalfLife: 40, Landmark: 5}}
		k := 2 + rng.Intn(2)
		in := make([]*Sampler, k)
		for i := range in {
			in[i] = sampler(cfg, 30+rng.Intn(50), seed+uint64(i))
		}
		for _, e := range randomEdges(rng, 500, 90, 5) {
			in[randx.Mix64(e.Key())%uint64(k)].Process(e)
		}
		out = append(out, mergeInputs{"decayed", cfg, in})
	}

	// Turnstile deletions, which leave freed arena slots behind.
	{
		k := 2 + rng.Intn(3)
		in := make([]*Sampler, k)
		for i := range in {
			in[i] = sampler(Config{Weight: TriangleWeight}, 25+rng.Intn(40), seed+uint64(i))
		}
		stream := randomEdges(rng, 700, 70, 0)
		for i, e := range stream {
			s := in[randx.Mix64(e.Key())%uint64(k)]
			s.Process(e)
			if i%3 == 0 {
				old := stream[rng.Intn(i+1)]
				in[randx.Mix64(old.Key())%uint64(k)].Process(old.AsDeletion())
			}
		}
		out = append(out, mergeInputs{"deletions", Config{Weight: TriangleWeight}, in})
	}

	// A single input, and empty inputs beside a full one and alone.
	{
		s := sampler(Config{}, 60, seed)
		s.ProcessBatch(randomEdges(rng, 200, 50, 0))
		out = append(out, mergeInputs{"single", Config{}, []*Sampler{s}})
		out = append(out, mergeInputs{"with-empty", Config{}, []*Sampler{sampler(Config{}, 5, 1), s, sampler(Config{}, 5, 2)}})
		out = append(out, mergeInputs{"all-empty", Config{}, []*Sampler{sampler(Config{}, 5, 1), sampler(Config{}, 5, 2)}})
	}

	// Priorities drawn log-uniformly from the subnormals up to ~1e300,
	// some repeated, over disjoint edge sets: the other families' narrow
	// priority ranges let the radix sort skip its high digits, and here
	// every digit varies.
	{
		pool := randomEdges(rng, 500, 60, 0)
		k := 2 + rng.Intn(3)
		in := make([]*Sampler, k)
		for i := range in {
			in[i] = sampler(Config{}, len(pool), seed+uint64(i))
		}
		lo, hi := math.Log(math.SmallestNonzeroFloat64), math.Log(1e300)
		var drawn []float64
		for _, e := range pool {
			p := math.Max(math.Exp(lo+(hi-lo)*rng.Uniform01()), math.SmallestNonzeroFloat64)
			if len(drawn) > 0 && rng.Intn(4) == 0 {
				p = drawn[rng.Intn(len(drawn))]
			}
			drawn = append(drawn, p)
			in[rng.Intn(k)].res.insert(order.Entry{Edge: e, Weight: 1 + float64(rng.Intn(4)), Priority: p})
		}
		for _, s := range in {
			s.zstar = drawn[rng.Intn(len(drawn))]
		}
		out = append(out, mergeInputs{"wide-priorities", Config{}, in})
	}

	// Timed overlapping panes, a window query's inputs: an untimed prefix,
	// late arrivals, deletions, and an exact copy of one input.
	{
		stream := randomEdges(rng, 600, 80, 1)
		for i := range stream {
			switch {
			case i < 60:
				stream[i].TS = 0
			case rng.Intn(10) == 0:
				stream[i].TS = 1 + rng.Uint64n(stream[i].TS)
			}
		}
		cfg := Config{Weight: TriangleWeight}
		var in []*Sampler
		for lo := 0; lo+200 <= len(stream); lo += 100 + rng.Intn(100) {
			s := sampler(cfg, 30+rng.Intn(60), seed^uint64(lo))
			for i, e := range stream[lo : lo+200] {
				s.Process(e)
				if i%5 == 0 {
					s.Process(stream[lo+rng.Intn(i+1)].AsDeletion())
				}
			}
			in = append(in, s)
		}
		in = append(in, in[rng.Intn(len(in))].Clone())
		out = append(out, mergeInputs{"timed-panes", cfg, in})
	}
	return out
}

// trimmedClones returns clones of inputs with every entry whose stored
// event time lies in (0, cut] deleted through the turnstile path: the
// trim a cut in MergeRuns must reproduce. A cut is no stream deletion, so
// each clone keeps its input's deletion counters.
func trimmedClones(inputs []*Sampler, cut uint64) []*Sampler {
	out := make([]*Sampler, len(inputs))
	for i, s := range inputs {
		c := s.Clone()
		for _, e := range s.res.Edges() {
			if e.TS != 0 && e.TS <= cut {
				c.Process(e.AsDeletion())
			}
		}
		c.delApplied = s.delApplied
		out[i] = c
	}
	return out
}

// mergeCuts returns the cuts to test a family's merge with: its smallest,
// median and largest stored event times, or, for untimed inputs, one cut
// that leaves out nothing.
func mergeCuts(inputs []*Sampler) []uint64 {
	var ts []uint64
	for _, s := range inputs {
		for _, e := range s.res.Edges() {
			if e.TS != 0 {
				ts = append(ts, e.TS)
			}
		}
	}
	if len(ts) == 0 {
		return []uint64{7}
	}
	slices.Sort(ts)
	return slices.Compact([]uint64{ts[0], ts[len(ts)/2], ts[len(ts)-1]})
}

// TestMergeMatchesReference is the bit-identity property of the bulk
// merge: over randomized input families and capacities below, equal to and
// above the input total, Merge equals mergeReference in every bit — and
// the two merged samplers stay equal while they keep sampling, deleting
// and re-growing, which exercises the bulk-built adjacency's full-cap runs.
// With a cut, MergeRuns equals mergeReference over clones trimmed by the
// deletion path, at the smallest, median and largest event time.
func TestMergeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, fam := range newMergeInputs(t, seed) {
			total := 0
			for _, s := range fam.inputs {
				total += s.res.Len()
			}
			for _, capacity := range []int{1, max(1, total/3), max(1, total-1), max(1, total), total + 7} {
				name := fmt.Sprintf("seed%d/%s/m%d", seed, fam.name, capacity)
				cfg := fam.cfg
				cfg.Capacity, cfg.Seed = capacity, seed^0xABCD
				got, err := Merge(fam.inputs, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := mergeReference(fam.inputs, cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				t.Run(name, func(t *testing.T) { requireSameMerge(t, seed, got, want) })
				for _, cut := range mergeCuts(fam.inputs) {
					got, err := MergeRuns(NewRuns(fam.inputs), cfg, cut)
					if err != nil {
						t.Fatalf("%s/cut%d: %v", name, cut, err)
					}
					want, err := mergeReference(trimmedClones(fam.inputs, cut), cfg)
					if err != nil {
						t.Fatalf("%s/cut%d: reference: %v", name, cut, err)
					}
					t.Run(fmt.Sprintf("%s/cut%d", name, cut), func(t *testing.T) { requireSameMerge(t, seed, got, want) })
				}
			}
		}
	}
}

// requireSameMerge checks two merged samplers bit for bit, then keeps
// sampling and deleting on both and checks them again.
func requireSameMerge(t *testing.T, seed uint64, got, want *Sampler) {
	t.Helper()
	requireSameBits(t, got, want)
	rng := randx.New(seed)
	var ts uint64
	if got.Decayed() {
		ts = got.lastTS
	}
	more := randomEdges(rng, 150, 60, ts)
	for i, e := range more {
		got.Process(e)
		want.Process(e)
		if i%4 == 0 {
			// Delete resident edges too, not only arrivals.
			old := got.res.Edges()
			if len(old) > 0 {
				d := old[rng.Intn(len(old))].AsDeletion()
				got.Process(d)
				want.Process(d)
			}
		}
	}
	requireSameBits(t, got, want)
}

// TestMergeTieGoesToFirstInput pins the one choice the reference leaves
// open: an edge held at the same priority by several inputs is taken from
// the first of them, payload and all.
func TestMergeTieGoesToFirstInput(t *testing.T) {
	e := graph.NewEdge(1, 2)
	inputs := make([]*Sampler, 3)
	for i := range inputs {
		s, err := NewSampler(Config{Capacity: 4, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		s.res.insert(order.Entry{Edge: e.At(uint64(10 + i)), Weight: 1, Priority: 2})
		inputs[i] = s
	}
	slices.Reverse(inputs) // input 0 carries event time 12
	m, err := Merge(inputs, Config{Capacity: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.res.Len() != 1 || m.res.entry(e).Edge.TS != 12 {
		t.Fatalf("merged %d entries, event time %v; want the first input's copy (12)", m.res.Len(), m.res.entry(e).Edge.TS)
	}
	if m.Threshold() != 2 {
		t.Fatalf("threshold %v, want the excluded copies' priority 2", m.Threshold())
	}
}

// BenchmarkMerge times the merge of the engine's default query shape — two
// 100K-edge shard reservoirs into one of 100K — for the bulk build and for
// the sequential reference it replaced.
func BenchmarkMerge(b *testing.B) {
	rng := randx.New(7)
	inputs := make([]*Sampler, 2)
	for i := range inputs {
		s, err := NewSampler(Config{Capacity: 100_000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = s
	}
	for _, e := range randomEdges(rng, 500_000, 1<<17, 0) {
		inputs[randx.Mix64(e.Key())%2].Process(e)
	}
	cfg := Config{Capacity: 100_000, Seed: 3}
	for _, bc := range []struct {
		name  string
		merge func([]*Sampler, Config) (*Sampler, error)
	}{{"bulk", Merge}, {"reference", mergeReference}} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := bc.merge(inputs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
