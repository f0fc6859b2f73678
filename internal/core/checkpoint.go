package core

import (
	"fmt"
	"io"

	"gps/internal/checkpoint"
	"gps/internal/graph"
	"gps/internal/order"
	"gps/internal/randx"
)

// GPSC sampler payload (checkpoint.KindSampler). The serialized state is
// exactly what future sampling decisions and estimator summation orders
// depend on, laid out so a restored sampler evolves bit-identically to the
// original from the checkpoint point onward:
//
//	uvarint  capacity (m)
//	uvarint  arrivals
//	uvarint  duplicates
//	f64      threshold z*
//	4 × u64  RNG state (xoshiro256++)
//	string   weight name (caller-interpreted; see ResolveWeight)
//	v2 only: f64 half-life, uvarint configured landmark,
//	         u8 landmark-set, uvarint landmark, uvarint horizon (lastTS)
//	heap     uvarint arenaLen
//	         arenaLen × { u32 U, u32 V, [v2 or v3-timed: uvarint eventTS,]
//	                      f64 weight, f64 priority,
//	                      f64 triCov, f64 wedgeCov }   (freed slots zeroed;
//	                      the covariance words come from an in-stream
//	                      estimator's slot table and are zero otherwise)
//	         uvarint freedLen,  freedLen × uvarint slot
//	         uvarint heapLen,   heapLen  × uvarint slot (heap order)
//	adjacency
//	         uvarint denseLen
//	         denseLen × { u32 node, uvarint runLen,
//	                      runLen × { u32 neighbor, uvarint slot+1 } }
//	         uvarint freedIDs,  freedIDs × uvarint id
//
// Version gating: a sampler running forward decay writes a GPSC version-2
// document carrying the decay block and per-entry event timestamps; an
// undecayed sampler writes version 1, byte-identical to earlier releases.
// Decoders accept both — a version-1 document restores as undecayed — and
// reject a version-2 document without a positive half-life, so every state
// has exactly one serialized form and re-encoding is idempotent.
//
// A sampler whose state the v1/v2 layouts cannot carry writes a GPSC
// version-3 document: after the weight name, a feature-flags uvarint (bit 0
// = decay block present, bit 1 = deletion counters present, bit 2 = timed
// entries without decay), then — when bit 1 is set — the delApplied and
// delUnsampled counters as uvarints, then the decay block (when bit 0 is
// set) and the common layout above. Bit 2 marks an undecayed sampler whose
// reservoir holds event-timed edges (turnstile windows trim by stored event
// time, so dropping TS would silently break restored window queries); it
// adds the per-entry eventTS field exactly as version 2 does. Version 3 is
// emitted only when the deletion counters are non-zero or a timed entry is
// resident, so runs that never see either keep their v1/v2 bytes, and a v3
// document with nothing a v2 could not carry is rejected — one serialized
// form per state.
//
// The sampler payload is the same in both document kinds. An in-stream
// estimator fills each live slot's two covariance words from its slot table
// and a restore refills the table from them; a plain sampler writes zeros,
// and reading a plain-sampler document checks the words (finite, zero at
// freed slots) and discards them.
//
// The in-stream payload (KindInStream) appends a stream-binding string —
// an opaque, caller-interpreted description of the stream being resumed
// (file identity, ordering flags), which the restoring caller compares
// against the stream it is about to replay — followed by the five
// estimator accumulators (Ñ(△), Ṽ(△), Ñ(Λ), Ṽ(Λ), Ṽ(△,Λ)) as f64s, and in
// version 2 the decayed-arrival total (f64, landmark units).
//
// Freed heap slots and freed dense ids are serialized as zeroes, so the
// document is a function of live state only and checkpoint → restore →
// checkpoint reproduces the file byte for byte.

// WriteCheckpoint serializes the sampler's complete data plane as a GPSC
// sampler document. weightName records which weight function the sampler
// was running (the function itself cannot be serialized); ReadCheckpoint
// hands the name to its resolver, and restore is only bit-identical when
// the resolver returns the same function. Stateful weights (the adaptive
// triangle weight) carry state outside the sampler and cannot be made
// durable; callers must reject them before checkpointing.
func (s *Sampler) WriteCheckpoint(w io.Writer, weightName string) error {
	cw := checkpoint.NewWriterVersion(w, checkpoint.KindSampler, s.ckptVersion())
	s.encodePayload(cw, weightName, nil)
	return cw.Finish()
}

// ckptVersion selects the GPSC version the sampler's state requires:
// version 3 when turnstile-deletion counters must survive (the stream
// position would otherwise shift under resume) or when an undecayed
// reservoir holds event-timed edges (window trimming reads stored event
// times, so they must round-trip), version 2 for the forward-decay block,
// version 1 for the undecayed insert-only layout of earlier releases.
func (s *Sampler) ckptVersion() byte {
	if s.delApplied+s.delUnsampled > 0 {
		return checkpoint.Version3
	}
	if s.lambda > 0 {
		return checkpoint.Version2
	}
	if s.timedEntries() {
		return checkpoint.Version3
	}
	return checkpoint.Version
}

// timedEntries reports whether any resident edge carries an event time.
// Freed arena slots are zeroed, so scanning the heap view covers exactly
// the live entries.
func (s *Sampler) timedEntries() bool {
	for i := 0; i < s.res.heap.Len(); i++ {
		if s.res.heap.At(i).Edge.TS != 0 {
			return true
		}
	}
	return false
}

// Version-3 turnstile feature flags.
const (
	ckptFlagDecay     = 1 << 0
	ckptFlagDeletions = 1 << 1
	ckptFlagTimed     = 1 << 2
)

// encodePayload writes the sampler payload. recs is an in-stream
// estimator's per-edge table, the source of each live slot's two
// covariance words; a plain sampler passes nil and writes zeros.
func (s *Sampler) encodePayload(cw *checkpoint.Writer, weightName string, recs []inRec) {
	decayed := s.lambda > 0
	cw.Uvarint(uint64(s.capacity))
	cw.Uvarint(s.arrivals)
	cw.Uvarint(s.duplicates)
	cw.F64(s.zstar)
	for _, word := range s.rng.State() {
		cw.U64(word)
	}
	cw.String(weightName)
	timed := false
	if s.ckptVersion() == checkpoint.Version3 {
		var flags uint64
		if decayed {
			flags |= ckptFlagDecay
		}
		if s.delApplied+s.delUnsampled > 0 {
			flags |= ckptFlagDeletions
		}
		// The decay block already carries per-entry event times; the timed
		// flag covers the undecayed case only, keeping one form per state.
		timed = !decayed && s.timedEntries()
		if timed {
			flags |= ckptFlagTimed
		}
		cw.Uvarint(flags)
		if flags&ckptFlagDeletions != 0 {
			cw.Uvarint(s.delApplied)
			cw.Uvarint(s.delUnsampled)
		}
	}
	if decayed {
		cw.F64(s.decay.HalfLife)
		cw.Uvarint(s.decay.Landmark)
		if s.landmarkSet {
			cw.Uvarint(1)
		} else {
			cw.Uvarint(0)
		}
		cw.Uvarint(s.landmark)
		cw.Uvarint(s.lastTS)
	}

	arena, freed, heapOrder := s.res.heap.ExportState()
	isFreedSlot := make([]bool, len(arena))
	for _, slot := range freed {
		isFreedSlot[slot] = true
	}
	cw.Uvarint(uint64(len(arena)))
	for slot := range arena {
		ent, rec := &arena[slot], inRec{}
		if isFreedSlot[slot] {
			ent = &order.Entry{} // normalize: freed slots hold eviction garbage
		} else if recs != nil {
			rec = recs[slot]
		}
		cw.U32(uint32(ent.Edge.U))
		cw.U32(uint32(ent.Edge.V))
		if decayed || timed {
			cw.Uvarint(ent.Edge.TS)
		}
		cw.F64(ent.Weight)
		cw.F64(ent.Priority)
		cw.F64(rec.triCov)
		cw.F64(rec.wedgeCov)
	}
	cw.Uvarint(uint64(len(freed)))
	for _, slot := range freed {
		cw.Uvarint(uint64(slot))
	}
	cw.Uvarint(uint64(len(heapOrder)))
	for _, slot := range heapOrder {
		cw.Uvarint(uint64(slot))
	}

	nodes, freedIDs, nbrs, slots := s.res.adj.ExportDense()
	isFreedID := make([]bool, len(nodes))
	for _, id := range freedIDs {
		isFreedID[id] = true
	}
	cw.Uvarint(uint64(len(nodes)))
	for id := range nodes {
		node := nodes[id]
		if isFreedID[id] {
			node = 0 // normalize: freed ids hold the released node's stale id
		}
		cw.U32(uint32(node))
		cw.Uvarint(uint64(len(nbrs[id])))
		for j, u := range nbrs[id] {
			cw.U32(uint32(u))
			cw.Uvarint(uint64(slots[id][j]) + 1) // -1 (no slot) encodes as 0
		}
	}
	cw.Uvarint(uint64(len(freedIDs)))
	for _, id := range freedIDs {
		cw.Uvarint(uint64(id))
	}
}

// ReadCheckpoint restores a sampler from a GPSC sampler document. The
// resolver maps the recorded weight name back to a function; nil means
// ResolveWeight (the built-in pure weights). The decoder is strict: any
// structural damage — truncation, checksum mismatch, slot runs that
// disagree with the heap, a heap that is not a heap — yields an error,
// never a panic, and no allocation is sized by an untrusted length.
func ReadCheckpoint(r io.Reader, resolve func(string) (WeightFunc, error)) (*Sampler, error) {
	cr := checkpoint.NewReader(r)
	if err := cr.ExpectKind(checkpoint.KindSampler); err != nil {
		return nil, err
	}
	s, err := decodePayload(cr, resolve, nil)
	if err != nil {
		return nil, err
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

const maxInt32 = (1 << 31) - 1

// decodePayload reads a sampler payload. Each slot's two covariance words
// must be finite, and zero at a freed slot; with table non-nil they fill
// it, with each slot's weight, as an in-stream estimator's per-edge table.
// A plain-sampler restore passes nil and discards them.
func decodePayload(cr *checkpoint.Reader, resolve func(string) (WeightFunc, error), table *[]inRec) (*Sampler, error) {
	if resolve == nil {
		resolve = ResolveWeight
	}
	capacity := cr.Count("capacity", maxInt32)
	arrivals := cr.Uvarint()
	duplicates := cr.Uvarint()
	zstar := cr.FiniteF64("threshold")
	var state [4]uint64
	for i := range state {
		state[i] = cr.U64()
	}
	weightName := cr.String()
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if capacity < 1 {
		return nil, fmt.Errorf("core: checkpoint capacity %d is not positive", capacity)
	}
	if zstar < 0 {
		return nil, fmt.Errorf("core: checkpoint threshold %v is negative", zstar)
	}
	rng, err := randx.FromState(state)
	if err != nil {
		return nil, err
	}
	weight, err := resolve(weightName)
	if err != nil {
		return nil, err
	}

	// Version-gated forward-decay block: a v1 document restores as
	// undecayed; a v2 document must carry a valid decay state (one
	// serialized form per state keeps re-encoding idempotent).
	var (
		decay        Decay
		landmarkSet  bool
		landmark     uint64
		lastTS       uint64
		delApplied   uint64
		delUnsampled uint64
	)
	decayed := cr.Version() == checkpoint.Version2
	timed := false
	if cr.Version() == checkpoint.Version3 {
		// Turnstile block: feature flags, then the deletion counters when
		// present. A v3 document that carries nothing a v2 could not is
		// rejected so every state keeps exactly one serialized form.
		flags := cr.Uvarint()
		if err := cr.Err(); err != nil {
			return nil, err
		}
		if flags&^uint64(ckptFlagDecay|ckptFlagDeletions|ckptFlagTimed) != 0 {
			return nil, fmt.Errorf("core: version-3 checkpoint carries unknown feature flags %#x", flags)
		}
		if flags&(ckptFlagDeletions|ckptFlagTimed) == 0 {
			return nil, fmt.Errorf("core: version-3 checkpoint without deletion counters or timed entries would not need version 3")
		}
		if flags&ckptFlagDeletions != 0 {
			delApplied = cr.Uvarint()
			delUnsampled = cr.Uvarint()
			if err := cr.Err(); err != nil {
				return nil, err
			}
			if delApplied+delUnsampled == 0 {
				return nil, fmt.Errorf("core: version-3 checkpoint deletion flag without deletion counters")
			}
		}
		decayed = flags&ckptFlagDecay != 0
		timed = flags&ckptFlagTimed != 0
		if decayed && timed {
			return nil, fmt.Errorf("core: version-3 checkpoint timed flag is redundant under decay")
		}
	}
	if decayed {
		decay.HalfLife = cr.FiniteF64("decay half-life")
		decay.Landmark = cr.Uvarint()
		flag := cr.Uvarint()
		landmark = cr.Uvarint()
		lastTS = cr.Uvarint()
		if err := cr.Err(); err != nil {
			return nil, err
		}
		if decay.HalfLife <= 0 {
			return nil, fmt.Errorf("core: version-2 checkpoint half-life %v is not positive", decay.HalfLife)
		}
		switch flag {
		case 0:
			if arrivals > 0 {
				return nil, fmt.Errorf("core: checkpoint has %d arrivals but no decay landmark", arrivals)
			}
		case 1:
			landmarkSet = true
		default:
			return nil, fmt.Errorf("core: checkpoint landmark flag %d is not boolean", flag)
		}
	}

	arenaLen := cr.Count("arena", maxInt32)
	arena := make([]order.Entry, 0, min(arenaLen, 1<<14))
	var recs []inRec
	if table != nil {
		recs = make([]inRec, 0, min(arenaLen, 1<<14))
	}
	sawTS := false
	for i := 0; i < arenaLen; i++ {
		var ent order.Entry
		ent.Edge.U = graph.NodeID(cr.U32())
		ent.Edge.V = graph.NodeID(cr.U32())
		if decayed || timed {
			ent.Edge.TS = cr.Uvarint()
			if decayed && cr.Err() == nil && ent.Edge.TS > lastTS {
				return nil, fmt.Errorf("core: checkpoint entry %d event time %d is beyond the horizon %d",
					i, ent.Edge.TS, lastTS)
			}
			sawTS = sawTS || ent.Edge.TS != 0
		}
		ent.Weight = cr.F64()
		ent.Priority = cr.F64()
		rec := inRec{w: ent.Weight,
			triCov: cr.FiniteF64("triangle covariance accumulator"), wedgeCov: cr.FiniteF64("wedge covariance accumulator")}
		if cr.Err() != nil {
			return nil, cr.Err()
		}
		// RestoreHeap requires exactly the freed slots' entries to be zero.
		if ent == (order.Entry{}) && (rec.triCov != 0 || rec.wedgeCov != 0) {
			return nil, fmt.Errorf("core: checkpoint freed slot %d holds covariance accumulators", i)
		}
		arena = append(arena, ent)
		if table != nil {
			recs = append(recs, rec)
		}
	}
	if timed && !sawTS {
		return nil, fmt.Errorf("core: version-3 checkpoint timed flag without any timed entry")
	}
	readSlots := func(what string, max int) []int32 {
		n := cr.Count(what, uint64(max))
		out := make([]int32, 0, min(n, 1<<14))
		for i := 0; i < n && cr.Err() == nil; i++ {
			v := cr.Uvarint()
			if v > maxInt32 {
				return nil
			}
			out = append(out, int32(v))
		}
		return out
	}
	freedSlots := readSlots("free list", arenaLen)
	heapOrder := readSlots("heap", arenaLen)
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if freedSlots == nil || heapOrder == nil {
		return nil, fmt.Errorf("core: checkpoint slot id exceeds int32")
	}
	if len(heapOrder) > capacity {
		return nil, fmt.Errorf("core: checkpoint holds %d edges, above capacity %d", len(heapOrder), capacity)
	}
	heap, err := order.RestoreHeap(arena, freedSlots, heapOrder)
	if err != nil {
		return nil, err
	}
	if table != nil {
		*table = recs
	}

	denseLen := cr.Count("dense table", maxInt32)
	nodes := make([]graph.NodeID, 0, min(denseLen, 1<<14))
	nbrs := make([][]graph.NodeID, 0, min(denseLen, 1<<14))
	slotRuns := make([][]int32, 0, min(denseLen, 1<<14))
	for id := 0; id < denseLen; id++ {
		node := graph.NodeID(cr.U32())
		runLen := cr.Count("neighbor run", maxInt32)
		var run []graph.NodeID
		var sl []int32
		for j := 0; j < runLen && cr.Err() == nil; j++ {
			run = append(run, graph.NodeID(cr.U32()))
			v := cr.Uvarint() // slot+1, so 0 decodes to the no-slot marker -1
			if v > maxInt32+1 {
				return nil, fmt.Errorf("core: checkpoint slot annotation exceeds int32")
			}
			sl = append(sl, int32(int64(v)-1))
		}
		if cr.Err() != nil {
			return nil, cr.Err()
		}
		nodes = append(nodes, node)
		nbrs = append(nbrs, run)
		slotRuns = append(slotRuns, sl)
	}
	freedIDs := readSlots("freed dense ids", denseLen)
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if freedIDs == nil {
		return nil, fmt.Errorf("core: checkpoint dense id exceeds int32")
	}
	adj, err := graph.RestoreAdjacency(nodes, freedIDs, nbrs, slotRuns)
	if err != nil {
		return nil, err
	}

	// Cross-validate the two structures: the adjacency must index exactly
	// the sampled edge set, every slot run entry naming the heap arena slot
	// of its edge. Together with the per-structure validation this makes
	// every later estimator array access provably in-bounds.
	if adj.NumEdges() != heap.Len() {
		return nil, fmt.Errorf("core: checkpoint adjacency holds %d edges, heap holds %d",
			adj.NumEdges(), heap.Len())
	}
	for i := 0; i < heap.Len(); i++ {
		slot := heap.SlotAt(i)
		e := heap.BySlot(slot).Edge
		if got := adj.SlotOf(e); got != slot {
			return nil, fmt.Errorf("core: checkpoint slot runs disagree with heap for edge %v (%d vs %d)",
				e, got, slot)
		}
	}

	w, uniform := normalizeWeight(weight)
	return &Sampler{
		capacity:     capacity,
		weight:       w,
		uniform:      uniform,
		rng:          rng,
		res:          &Reservoir{heap: heap, adj: adj},
		zstar:        zstar,
		arrivals:     arrivals,
		duplicates:   duplicates,
		delApplied:   delApplied,
		delUnsampled: delUnsampled,
		decay:        decay,
		lambda:       decay.lambda(),
		landmark:     landmark,
		landmarkSet:  landmarkSet,
		lastTS:       lastTS,
	}, nil
}

// WriteCheckpoint serializes the in-stream estimator: its sampler payload,
// a stream binding, and the five running totals of Algorithm 3. The
// sampler payload's two covariance words per slot carry the per-edge
// accumulators C̃_k from the estimator's slot table (a plain sampler
// writes zeros there), so the payload has the plain sampler's layout.
// streamBinding is an opaque string describing the stream being consumed
// (source identity, ordering flags); a resuming caller gets it back from
// ReadInStreamCheckpoint and must refuse to replay a stream with a
// different binding — skipping the checkpointed prefix of a *differently
// ordered* stream would silently produce estimates over a stream the
// checkpoint was never taken from.
func (t *InStream) WriteCheckpoint(w io.Writer, weightName, streamBinding string) error {
	cw := checkpoint.NewWriterVersion(w, checkpoint.KindInStream, t.s.ckptVersion())
	t.s.encodePayload(cw, weightName, t.recs)
	cw.String(streamBinding)
	cw.F64(t.nTri)
	cw.F64(t.vTri)
	cw.F64(t.nW)
	cw.F64(t.vW)
	cw.F64(t.covTW)
	if t.s.lambda > 0 {
		cw.F64(t.decayedArrivals)
	}
	return cw.Finish()
}

// ReadInStreamCheckpoint restores an in-stream estimator from a GPSC
// in-stream document, under the same strictness contract as
// ReadCheckpoint, returning the stream binding recorded at write time.
func ReadInStreamCheckpoint(r io.Reader, resolve func(string) (WeightFunc, error)) (*InStream, string, error) {
	cr := checkpoint.NewReader(r)
	if err := cr.ExpectKind(checkpoint.KindInStream); err != nil {
		return nil, "", err
	}
	var recs []inRec
	s, err := decodePayload(cr, resolve, &recs)
	if err != nil {
		return nil, "", err
	}
	binding := cr.String()
	t := &InStream{
		s:    s,
		recs: recs,
		// The restored weight resolves to the same function the original
		// ran, so the fused-TriangleWeight classification survives restarts.
		fuseTri: fusesTriangleWeight(s.weight),
		nTri:    cr.FiniteF64("triangle total"),
		vTri:    cr.FiniteF64("triangle variance total"),
		nW:      cr.FiniteF64("wedge total"),
		vW:      cr.FiniteF64("wedge variance total"),
		covTW:   cr.FiniteF64("triangle-wedge covariance total"),
	}
	if s.lambda > 0 {
		t.decayedArrivals = cr.FiniteF64("decayed arrival total")
	}
	if err := cr.Finish(); err != nil {
		return nil, "", err
	}
	return t, binding, nil
}

// ResolveWeight maps a checkpoint's recorded weight name back to the
// corresponding built-in pure weight function: "" and "uniform" to nil
// (the uniform fast path), "triangle" to TriangleWeight, "adjacency" to
// AdjacencyWeight. Any other name errors. Callers with custom weights pass
// their own resolver to ReadCheckpoint instead.
func ResolveWeight(name string) (WeightFunc, error) {
	switch name {
	case "", "uniform":
		return nil, nil
	case "triangle":
		return TriangleWeight, nil
	case "adjacency":
		return AdjacencyWeight, nil
	}
	return nil, fmt.Errorf("core: unknown checkpoint weight %q (want uniform, triangle or adjacency)", name)
}
