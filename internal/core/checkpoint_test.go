package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"gps/internal/checkpoint"
	"gps/internal/graph"
)

// checkpointBytes serializes s and fails the test on error.
func checkpointBytes(t *testing.T, s *Sampler, weightName string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf, weightName); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreSampler decodes a checkpoint and fails the test on error.
func restoreSampler(t *testing.T, doc []byte) *Sampler {
	t.Helper()
	s, err := ReadCheckpoint(bytes.NewReader(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointRestoreBitIdentical is the tentpole property: a restored
// sampler must evolve exactly like the original from the checkpoint point
// onward — same reservoir fingerprint after the identical suffix, and the
// same bits from every estimator.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	edges := cloneTestStream(300, 4000, 0x5A)
	for _, tc := range []struct {
		name   string
		weight WeightFunc
	}{{"uniform", nil}, {"triangle", TriangleWeight}, {"adjacency", AdjacencyWeight}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSampler(Config{Capacity: 250, Weight: tc.weight, Seed: 0xFACE})
			if err != nil {
				t.Fatal(err)
			}
			processAll(t, s, edges[:2000])
			restored := restoreSampler(t, checkpointBytes(t, s, tc.name))
			requireSameSampler(t, s, restored)
			if got, want := fingerprint(restored), fingerprint(s); got != want {
				t.Fatalf("fingerprint after restore: %#x, want %#x", got, want)
			}
			if restored.Duplicates() != s.Duplicates() || restored.Processed() != s.Processed() {
				t.Fatal("stream position not restored")
			}

			// Every estimator must produce the same bits on the restored
			// state, which pins dense-id and heap iteration order, not just
			// the edge set.
			if a, b := EstimatePost(s), EstimatePost(restored); a != b {
				t.Fatalf("EstimatePost differs: %+v vs %+v", a, b)
			}
			if a, b := EstimateCliques4Post(s), EstimateCliques4Post(restored); a != b {
				t.Fatalf("EstimateCliques4Post differs: %v vs %v", a, b)
			}
			if a, b := EstimateStars3Post(s), EstimateStars3Post(restored); a != b {
				t.Fatalf("EstimateStars3Post differs: %v vs %v", a, b)
			}

			// ... and keep evolving identically through the rest of the
			// stream (same RNG draws, same weights, same evictions).
			processAll(t, s, edges[2000:])
			processAll(t, restored, edges[2000:])
			requireSameSampler(t, s, restored)
			if got, want := fingerprint(restored), fingerprint(s); got != want {
				t.Fatalf("fingerprint after suffix: %#x, want %#x", got, want)
			}
			if a, b := EstimatePost(s), EstimatePost(restored); a != b {
				t.Fatalf("EstimatePost after suffix differs: %+v vs %+v", a, b)
			}
			checkSlotConsistency(t, restored.res)
		})
	}
}

// TestCheckpointByteIdempotent: checkpoint → restore → checkpoint must
// reproduce the document byte for byte, i.e. the encoding is a function of
// live state only (freed arena slots and dense ids are normalized).
func TestCheckpointByteIdempotent(t *testing.T) {
	edges := cloneTestStream(200, 3000, 0x7B)
	s, err := NewSampler(Config{Capacity: 120, Weight: TriangleWeight, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	processAll(t, s, edges)
	doc := checkpointBytes(t, s, "triangle")
	again := checkpointBytes(t, restoreSampler(t, doc), "triangle")
	if !bytes.Equal(doc, again) {
		t.Fatalf("re-checkpoint differs: %d vs %d bytes", len(doc), len(again))
	}
}

// TestInStreamCheckpointRestore verifies the in-stream estimator round
// trip: accumulators and per-edge covariances survive, and both forks
// produce identical estimates after the identical suffix.
func TestInStreamCheckpointRestore(t *testing.T) {
	edges := cloneTestStream(250, 3500, 0x91)
	est, err := NewInStream(Config{Capacity: 200, Weight: TriangleWeight, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[:1700] {
		est.Process(e)
	}
	var buf bytes.Buffer
	if err := est.WriteCheckpoint(&buf, "triangle", "stream-A@1700"); err != nil {
		t.Fatal(err)
	}
	restored, binding, err := ReadInStreamCheckpoint(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if binding != "stream-A@1700" {
		t.Fatalf("stream binding %q did not round-trip", binding)
	}
	if est.Estimates() != restored.Estimates() {
		t.Fatalf("estimates differ after restore: %+v vs %+v", est.Estimates(), restored.Estimates())
	}
	for _, e := range edges[1700:] {
		est.Process(e)
		restored.Process(e)
	}
	if est.Estimates() != restored.Estimates() {
		t.Fatalf("estimates differ after suffix: %+v vs %+v", est.Estimates(), restored.Estimates())
	}
	requireSameSampler(t, est.Sampler(), restored.Sampler())
}

// TestCheckpointEmptySampler: a sampler that has seen nothing must survive
// the round trip too.
func TestCheckpointEmptySampler(t *testing.T) {
	s, err := NewSampler(Config{Capacity: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	restored := restoreSampler(t, checkpointBytes(t, s, ""))
	requireSameSampler(t, s, restored)
	e := graph.NewEdge(1, 2)
	if s.Process(e) != restored.Process(e) {
		t.Fatal("first arrivals diverge")
	}
	requireSameSampler(t, s, restored)
}

// TestCheckpointWeightResolution pins the weight-name contract: unknown
// and adaptive names fail, a custom resolver is honored, and kind bytes
// are enforced.
func TestCheckpointWeightResolution(t *testing.T) {
	s, err := NewSampler(Config{Capacity: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(checkpointBytes(t, s, "no-such-weight")), nil); err == nil {
		t.Fatal("unknown weight name accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader(checkpointBytes(t, s, "adaptive")), nil); err == nil {
		t.Fatal("adaptive weight accepted")
	}
	called := ""
	custom := func(name string) (WeightFunc, error) {
		called = name
		return TriangleWeight, nil
	}
	if _, err := ReadCheckpoint(bytes.NewReader(checkpointBytes(t, s, "mine")), custom); err != nil {
		t.Fatal(err)
	}
	if called != "mine" {
		t.Fatalf("resolver saw %q", called)
	}
	// A sampler document is not an in-stream document and vice versa.
	if _, _, err := ReadInStreamCheckpoint(bytes.NewReader(checkpointBytes(t, s, "")), nil); err == nil {
		t.Fatal("sampler document accepted as in-stream")
	}
}

// TestCheckpointCovarianceWords pins the decoder's checks on the sampler
// payload's two covariance words per slot, which carry an in-stream
// estimator's per-edge accumulators: they must be finite, and zero at a
// freed slot, in either document kind. A plain-sampler document with
// nonzero words (what an InStream's Sampler() wrote in earlier releases)
// still restores: the words are checked and discarded.
func TestCheckpointCovarianceWords(t *testing.T) {
	est, err := NewInStream(Config{Capacity: 12, Weight: TriangleWeight, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenStream()[:400] {
		est.Process(e)
	}
	_, freed, heapOrder := est.s.res.heap.ExportState()
	if len(freed) == 0 {
		t.Fatal("no freed slot to test")
	}
	live, gone := heapOrder[0], freed[0]
	// docs writes the in-stream document and the plain-sampler document of
	// the estimator with the given table, restoring the table afterwards.
	docs := func(recs []inRec) (inStream, plain []byte) {
		saved := est.recs
		est.recs = recs
		defer func() { est.recs = saved }()
		var a, b bytes.Buffer
		if err := est.WriteCheckpoint(&a, "triangle", ""); err != nil {
			t.Fatal(err)
		}
		cw := checkpoint.NewWriterVersion(&b, checkpoint.KindSampler, est.s.ckptVersion())
		est.s.encodePayload(cw, "triangle", recs)
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes()
	}
	with := func(set func(r []inRec)) []inRec {
		r := slices.Clone(est.recs)
		set(r)
		return r
	}
	// atFreedSlot writes a covariance word at the freed slot, which the
	// encoder always zeroes, by patching the document: records are 40
	// bytes in this layout, and a marker locates the live slot's record.
	atFreedSlot := func(doc []byte, marker float64) []byte {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(marker))
		at := bytes.Index(doc, word[:])
		if at < 0 || bytes.Count(doc, word[:]) != 1 {
			t.Fatal("marker not found once in the document")
		}
		at += 40 * int(gone-live) // the freed slot's triangle word
		if !bytes.Equal(doc[at-24:at+16], make([]byte, 40)) {
			t.Fatal("the freed slot's record is not where the layout puts it")
		}
		doc = slices.Clone(doc)
		binary.LittleEndian.PutUint64(doc[at:], math.Float64bits(0.5))
		binary.LittleEndian.PutUint32(doc[len(doc)-4:], crc32.ChecksumIEEE(doc[:len(doc)-4]))
		return doc
	}
	const marker = 0x1.23456789abcdep-3
	markedIn, markedPlain := docs(with(func(r []inRec) { r[live].triCov = marker }))
	infIn, infPlain := docs(with(func(r []inRec) { r[live].triCov = math.Inf(1) }))
	nanIn, nanPlain := docs(with(func(r []inRec) { r[live].wedgeCov = math.NaN() }))
	readIn := func(doc []byte) error {
		_, _, err := ReadInStreamCheckpoint(bytes.NewReader(doc), nil)
		return err
	}
	readPlain := func(doc []byte) error {
		_, err := ReadCheckpoint(bytes.NewReader(doc), nil)
		return err
	}
	for _, c := range []struct {
		name string
		doc  []byte
		read func([]byte) error
	}{
		{"infinite covariance/instream", infIn, readIn},
		{"infinite covariance/sampler", infPlain, readPlain},
		{"NaN covariance/instream", nanIn, readIn},
		{"NaN covariance/sampler", nanPlain, readPlain},
		{"covariance at a freed slot/instream", atFreedSlot(markedIn, marker), readIn},
		{"covariance at a freed slot/sampler", atFreedSlot(markedPlain, marker), readPlain},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.read(c.doc) == nil {
				t.Fatal("document accepted")
			}
		})
	}

	t.Run("finite covariance", func(t *testing.T) {
		back, _, err := ReadInStreamCheckpoint(bytes.NewReader(markedIn), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := est.recs[live]
		want.triCov = marker
		if back.recs[live] != want {
			t.Fatalf("restored record %+v, want %+v", back.recs[live], want)
		}
		s, err := ReadCheckpoint(bytes.NewReader(markedPlain), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointBytes(t, s, "triangle"), checkpointBytes(t, est.Sampler(), "triangle")) {
			t.Fatal("a plain-sampler restore kept covariance words")
		}
	})
}
