package core

import (
	"bytes"
	"testing"

	"gps/internal/gen"
	"gps/internal/graph"
)

// FuzzCheckpointDecoder exercises the GPSC sampler and in-stream decoders
// with arbitrary input, in the spirit of stream.FuzzBinaryDecoder: they
// must never panic, never allocate from untrusted lengths (decoding grows
// memory only as bytes actually parse), and anything they accept must be a
// fully consistent sampler — pinned by re-encoding it and decoding the
// result again. The seed corpus holds real checkpoints: empty, mid-stream,
// churned, and in-stream documents, plus a few deliberately broken ones.
func FuzzCheckpointDecoder(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("GPSC"))
	f.Add([]byte("GPSC\x01\x01"))
	f.Add([]byte("GPSC\x02\x01"))
	f.Add([]byte("GPSB\x01\x01"))

	// Real checkpoints as seeds: a fresh sampler, a churned mid-stream
	// sampler per weight, and an in-stream estimator.
	edges := gen.HolmeKim(300, 4, 0.4, 0xF2)
	addSampler := func(weight WeightFunc, name string, n int) {
		s, err := NewSampler(Config{Capacity: 64, Weight: weight, Seed: 11})
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range edges[:n] {
			s.Process(e)
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf, name); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addSampler(nil, "uniform", 0)
	addSampler(nil, "uniform", len(edges))
	addSampler(TriangleWeight, "triangle", len(edges))
	addSampler(AdjacencyWeight, "adjacency", len(edges)/2)
	addInStream := func(decay Decay, name string) {
		est, err := NewInStream(Config{Capacity: 64, Weight: TriangleWeight, Seed: 11, Decay: decay})
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range edges {
			est.Process(e)
		}
		var buf bytes.Buffer
		if err := est.WriteCheckpoint(&buf, "triangle", name); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addInStream(Decay{}, "fuzz-seed-stream")

	// GPSC v2 seeds: decayed (timestamped) sampler and in-stream documents,
	// plus a decayed document with an explicit configured landmark.
	timed := make([]graph.Edge, len(edges))
	for i, e := range edges {
		timed[i] = e.At(uint64(100 + i))
	}
	addDecayedSampler := func(decay Decay) {
		s, err := NewSampler(Config{Capacity: 64, Weight: TriangleWeight, Seed: 11, Decay: decay})
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range timed {
			s.Process(e)
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf, "triangle"); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addDecayedSampler(Decay{HalfLife: 50})
	addDecayedSampler(Decay{HalfLife: 200, Landmark: 60})
	addInStream(Decay{HalfLife: 80}, "fuzz-seed-decayed")

	// GPSC v3 seeds: turnstile samplers that applied deletions (the version
	// is chosen by content — deletion counters force v3).
	f.Add([]byte("GPSC\x03\x01"))
	addTurnstile := func(weight WeightFunc, name string) {
		s, err := NewSampler(Config{Capacity: 64, Weight: weight, Seed: 11})
		if err != nil {
			f.Fatal(err)
		}
		for i, e := range edges {
			s.Process(e)
			if i%5 == 4 {
				s.Process(edges[i-2].AsDeletion())
			}
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf, name); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addTurnstile(nil, "uniform")
	addTurnstile(TriangleWeight, "triangle")

	// A churned turnstile in-stream document at m = 12: deletions and
	// evictions have freed and reused nearly every slot, so the decoder
	// fills the estimator's table over reused slots.
	churned, err := NewInStream(Config{Capacity: 12, Weight: TriangleWeight, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range withDeletions(edges) {
		churned.Process(e)
	}
	var buf bytes.Buffer
	if err := churned.WriteCheckpoint(&buf, "triangle", "fuzz-seed-churned"); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, input []byte) {
		if s, err := ReadCheckpoint(bytes.NewReader(input), nil); err == nil {
			roundTripSampler(t, s)
		}
		if est, binding, err := ReadInStreamCheckpoint(bytes.NewReader(input), nil); err == nil {
			roundTripSampler(t, est.Sampler())
			var buf bytes.Buffer
			if err := est.WriteCheckpoint(&buf, "w", binding); err != nil {
				t.Fatalf("re-encode of accepted in-stream document: %v", err)
			}
			if _, again, err := ReadInStreamCheckpoint(&buf, func(string) (WeightFunc, error) { return nil, nil }); err != nil {
				t.Fatalf("re-decode of accepted in-stream document: %v", err)
			} else if again != binding {
				t.Fatalf("stream binding changed across round trip: %q -> %q", binding, again)
			}
		}
	})
}

// roundTripSampler asserts an accepted document describes a sampler whose
// state survives re-encoding: decode(encode(s)) succeeds and carries the
// same reservoir.
func roundTripSampler(t *testing.T, s *Sampler) {
	t.Helper()
	if s.Reservoir().Len() > s.Capacity() {
		t.Fatalf("decoder accepted %d sampled edges above capacity %d", s.Reservoir().Len(), s.Capacity())
	}
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf, "w"); err != nil {
		t.Fatalf("re-encode of accepted document: %v", err)
	}
	again, err := ReadCheckpoint(&buf, func(string) (WeightFunc, error) { return nil, nil })
	if err != nil {
		t.Fatalf("re-decode of accepted document: %v", err)
	}
	if again.Reservoir().Len() != s.Reservoir().Len() || again.Threshold() != s.Threshold() ||
		again.Arrivals() != s.Arrivals() {
		t.Fatal("round trip changed sampler state")
	}
}
