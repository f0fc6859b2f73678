// Package graph defines the graph model shared by every subsystem of the GPS
// reproduction: node identifiers, canonical undirected edges, a dynamic
// adjacency structure used for reservoir topology queries, the flat
// open-addressing key table that interns the adjacency's nodes and indexes
// the reservoir heap's edges, a compact static CSR representation used by
// the exact counters, and a deduplicating edge-set builder used by the
// synthetic generators.
//
// The paper (§6) evaluates on "undirected, unweighted, simplified" graphs,
// i.e. no self loops and no duplicate edges; every type in this package
// enforces those invariants.
package graph

import "fmt"

// NodeID identifies a vertex. The reproduction targets laptop-scale graphs
// (up to a few tens of millions of nodes), so 32 bits suffice and halve the
// memory of adjacency structures relative to int64.
type NodeID uint32

// Edge is an undirected edge in canonical form: U < V always holds for edges
// constructed through NewEdge. Because the paper's streams carry unique,
// simplified edges, an Edge doubles as the identity of a stream item.
//
// TS is an optional event timestamp in caller-defined units (seconds, epoch
// millis, logical ticks); 0 means "no timestamp", in which case temporal
// consumers fall back to arrival order. TS is NOT part of the edge's
// identity: Key ignores it, and every structure that deduplicates or looks
// up edges goes through Key. Code must not compare two Edge values with ==
// unless they provably stem from the same arrival.
//
// Del marks a turnstile deletion record: the stream item retracts the edge
// {U,V} instead of inserting it. Like TS it is transport metadata, not
// identity — samplers strip it on admission, so stored entries never carry
// it, and Key ignores it.
type Edge struct {
	U, V NodeID
	TS   uint64
	Del  bool
}

// NewEdge returns the canonical form of the undirected edge {a,b}.
// It panics if a == b: self loops are excluded from the graph model and must
// be filtered by the stream layer before reaching any sampler.
func NewEdge(a, b NodeID) Edge {
	if a == b {
		panic(fmt.Sprintf("graph: self loop at node %d", a))
	}
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// NewEdgeAt is NewEdge carrying an event timestamp.
func NewEdgeAt(a, b NodeID, ts uint64) Edge {
	e := NewEdge(a, b)
	e.TS = ts
	return e
}

// At returns a copy of e stamped with the given event timestamp.
func (e Edge) At(ts uint64) Edge {
	e.TS = ts
	return e
}

// AsDeletion returns a copy of e flagged as a turnstile deletion record.
func (e Edge) AsDeletion() Edge {
	e.Del = true
	return e
}

// Insert returns a copy of e with the deletion flag cleared — the form
// samplers store, so reservoir entries never carry transport metadata.
func (e Edge) Insert() Edge {
	e.Del = false
	return e
}

// Key packs the canonical edge into a single comparable 64-bit map key.
func (e Edge) Key() uint64 {
	return uint64(e.U)<<32 | uint64(e.V)
}

// EdgeFromKey is the inverse of Edge.Key.
func EdgeFromKey(k uint64) Edge {
	return Edge{U: NodeID(k >> 32), V: NodeID(k & 0xffffffff)}
}

// Canonical reports whether e is in canonical form (U < V).
func (e Edge) Canonical() bool { return e.U < e.V }

// Has reports whether v is an endpoint of e.
func (e Edge) Has(v NodeID) bool { return e.U == v || e.V == v }

// Other returns the endpoint of e opposite v. The boolean is false when v is
// not an endpoint of e.
func (e Edge) Other(v NodeID) (NodeID, bool) {
	switch v {
	case e.U:
		return e.V, true
	case e.V:
		return e.U, true
	}
	return 0, false
}

// SharedNode returns the node shared by two adjacent edges. The boolean is
// false when the edges are not adjacent (or are equal, which in a simple
// graph means they share both endpoints).
func (e Edge) SharedNode(f Edge) (NodeID, bool) {
	if e == f {
		return 0, false
	}
	if f.Has(e.U) {
		return e.U, true
	}
	if f.Has(e.V) {
		return e.V, true
	}
	return 0, false
}

// Adjacent reports whether e and f are distinct edges sharing an endpoint —
// the relation k ~ k' of §3.1.
func (e Edge) Adjacent(f Edge) bool {
	_, ok := e.SharedNode(f)
	return ok
}

// String renders the edge as "u-v".
func (e Edge) String() string { return fmt.Sprintf("%d-%d", e.U, e.V) }
