package core

import (
	"testing"

	"gps/internal/graph"
)

// TestAcceptEvictInvariant checks the estimator self-telemetry invariant
// the serve layer's fill gauge relies on: accepts - evicts equals the
// reservoir fill at every point in the stream, and the counters survive
// Clone and Merge.
func TestAcceptEvictInvariant(t *testing.T) {
	s, err := NewSampler(Config{Capacity: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		s.Process(graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1)})
		if fill := s.Accepts() - s.Evicts(); fill != uint64(s.Reservoir().Len()) {
			t.Fatalf("after %d arrivals: accepts %d - evicts %d = %d, reservoir holds %d",
				i+1, s.Accepts(), s.Evicts(), fill, s.Reservoir().Len())
		}
	}
	if s.Accepts() <= uint64(s.Capacity()) {
		t.Fatalf("accepts = %d over a 1000-edge stream, want more than capacity %d", s.Accepts(), s.Capacity())
	}

	c := s.Clone()
	if c.Accepts() != s.Accepts() || c.Evicts() != s.Evicts() {
		t.Fatal("Clone must carry the telemetry counters")
	}

	// Disjoint shards merged: counts sum, and the merge's own exclusions
	// count as evictions, preserving the fill invariant on the result.
	a, _ := NewSampler(Config{Capacity: 8, Seed: 1})
	b, _ := NewSampler(Config{Capacity: 8, Seed: 2})
	for i := uint64(0); i < 400; i += 2 {
		a.Process(graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1)})
		b.Process(graph.Edge{U: graph.NodeID(i + 1000), V: graph.NodeID(i + 1001)})
	}
	m, err := Merge([]*Sampler{a, b}, Config{Capacity: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Accepts() != a.Accepts()+b.Accepts() {
		t.Fatalf("merged accepts %d, want %d", m.Accepts(), a.Accepts()+b.Accepts())
	}
	if fill := m.Accepts() - m.Evicts(); fill != uint64(m.Reservoir().Len()) {
		t.Fatalf("merged fill invariant: accepts %d - evicts %d != reservoir %d",
			m.Accepts(), m.Evicts(), m.Reservoir().Len())
	}
}
