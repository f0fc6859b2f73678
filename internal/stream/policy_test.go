package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gps/internal/graph"
)

// TestSelfLoopPolicyCrossFormat pins the shared reader policy: one logical
// stream — self loops, timestamps and all — must decode to the identical
// edge sequence with the identical skip count no matter which format
// carried it. (Before the policy was unified, text skipped self loops while
// binary rejected the whole stream.)
func TestSelfLoopPolicyCrossFormat(t *testing.T) {
	logical := []struct {
		u, v graph.NodeID
		ts   uint64
	}{
		{1, 2, 10}, {3, 3, 11}, {2, 5, 11}, {7, 7, 12}, {4, 1, 15}, {9, 9, 15},
	}

	var text, binBuf bytes.Buffer
	bin := NewBinaryWriterTimed(&binBuf)
	for _, r := range logical {
		fmt.Fprintf(&text, "%d %d %d\n", r.u, r.v, r.ts)
		var err error
		if r.u == r.v {
			// The *writer* never sees self loops in normal pipelines; build
			// the record by hand to model a producer that did emit one.
			err = writeRawTimedRecord(bin, uint64(r.u), uint64(r.v), r.ts)
		} else {
			err = bin.WriteEdge(graph.NewEdgeAt(r.u, r.v, r.ts))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := bin.Flush(); err != nil {
		t.Fatal(err)
	}

	tEdges, tStats, err := ReadEdgeListStats(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("text: %v", err)
	}
	bEdges, bStats, err := ReadBinaryStats(bytes.NewReader(binBuf.Bytes()))
	if err != nil {
		t.Fatalf("binary: %v", err)
	}
	if tStats.SelfLoops != 3 || bStats.SelfLoops != 3 {
		t.Fatalf("self-loop counts: text %d, binary %d, want 3 each", tStats.SelfLoops, bStats.SelfLoops)
	}
	if len(tEdges) != len(bEdges) || len(tEdges) != 3 {
		t.Fatalf("edge counts: text %d, binary %d, want 3 each", len(tEdges), len(bEdges))
	}
	for i := range tEdges {
		if tEdges[i] != bEdges[i] {
			t.Fatalf("edge %d: text %+v vs binary %+v", i, tEdges[i], bEdges[i])
		}
	}
	// ReadEdgesStats (the sniffing entry point) agrees with both.
	for name, payload := range map[string][]byte{"text": text.Bytes(), "binary": binBuf.Bytes()} {
		edges, st, err := ReadEdgesStats(bytes.NewReader(payload))
		if err != nil || len(edges) != 3 || st.SelfLoops != 3 {
			t.Fatalf("ReadEdgesStats(%s): edges=%d selfLoops=%d err=%v", name, len(edges), st.SelfLoops, err)
		}
	}
}

// writeRawTimedRecord emits one v2 record through the writer's buffer,
// bypassing WriteEdge's canonicalization so tests can craft self loops.
func writeRawTimedRecord(w *BinaryWriter, u, v, ts uint64) error {
	var buf [30]byte
	n := putUvarintTest(buf[:], u)
	n += putUvarintTest(buf[n:], v)
	n += putUvarintTest(buf[n:], ts-w.prevTS)
	w.prevTS = ts
	_, err := w.bw.Write(buf[:n])
	return err
}

func putUvarintTest(b []byte, x uint64) int {
	return binary.PutUvarint(b, x)
}

// TestBinaryV1SelfLoopSkipped covers the v1 decoder under the shared
// policy: the exact byte sequence that used to hard-error now skips and
// counts.
func TestBinaryV1SelfLoopSkipped(t *testing.T) {
	raw := append(append([]byte{}, []byte(binaryMagic)...), 0x03, 0x03, 0x02, 0x05)
	edges, st, err := ReadBinaryStats(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if st.SelfLoops != 1 || len(edges) != 1 || edges[0] != graph.NewEdge(2, 5) {
		t.Fatalf("edges=%v selfLoops=%d", edges, st.SelfLoops)
	}
	d := NewBinaryDecoder(bytes.NewReader(raw))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 1 || d.SelfLoops() != 1 {
		t.Fatalf("Count=%d SelfLoops=%d, want 1/1", d.Count(), d.SelfLoops())
	}
}

// TestReadEdgeListTooLong pins the bufio.ErrTooLong mapping: an over-long
// line must fail with a stream:-prefixed error naming the line, not the
// scanner's opaque "token too long".
func TestReadEdgeListTooLong(t *testing.T) {
	input := "1 2\n3 4\n" + strings.Repeat("9", maxLineBytes+10)
	_, err := ReadEdgeList(strings.NewReader(input))
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "stream: line 3:") {
		t.Fatalf("error does not name line 3: %q", msg)
	}
}

// TestReadEdgeListTimestamps covers the 3-column text form: a numeric,
// non-decreasing third field present on every row is an event time and
// WriteEdgeList round-trips it; a column present on only some rows (bare
// rows or non-numeric annotations) cannot be a coherent time axis, so the
// whole stream loads untimed with the fallback reported.
func TestReadEdgeListTimestamps(t *testing.T) {
	edges, st, err := ReadEdgeListStats(strings.NewReader("1 2 7\n3 4 9\n8 9 12\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{
		graph.NewEdgeAt(1, 2, 7),
		graph.NewEdgeAt(3, 4, 9),
		graph.NewEdgeAt(8, 9, 12),
	}
	if st.TimestampsDropped || len(edges) != len(want) {
		t.Fatalf("got %d edges (dropped=%v), want %d", len(edges), st.TimestampsDropped, len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, edges[i], want[i])
		}
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, edges); err != nil {
		t.Fatal(err)
	}
	again, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("round trip edge %d = %+v, want %+v", i, again[i], want[i])
		}
	}

	// Partially-timed input: the column is dropped everywhere (a mixed
	// TS/no-TS slice would break the v2 delta encoder and decay stamping),
	// and extra annotation columns stay tolerated. A column of 0 marks an
	// untimed row.
	for _, c := range []struct {
		input string
		edges int
	}{
		{"1 2 7\n3 4\n5 6 annotation\n8 9 12 extra junk\n", 4},
		{"1 2 0\n3 4 9\n", 2},
	} {
		edges, st, err = ReadEdgeListStats(strings.NewReader(c.input))
		if err != nil {
			t.Fatal(err)
		}
		if !st.TimestampsDropped {
			t.Fatalf("partially-timed file %q kept its timestamps", c.input)
		}
		for i, e := range edges {
			if e.TS != 0 {
				t.Fatalf("%q: edge %d kept TS %d after partial-column fallback", c.input, i, e.TS)
			}
		}
		if len(edges) != c.edges {
			t.Fatalf("%q: got %d edges, want %d", c.input, len(edges), c.edges)
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, edges); err != nil {
			t.Fatalf("%q: fallback stream no longer encodes: %v", c.input, err)
		}
	}
}

// TestReadEdgeListWeightColumnFallback pins the weighted-list safeguard: a
// numeric third column that is not non-decreasing is a weight/count
// column, not event time, so the stream loads untimed (with the fallback
// reported) and still round-trips through the binary writer as it did
// before timestamps existed.
func TestReadEdgeListWeightColumnFallback(t *testing.T) {
	edges, st, err := ReadEdgeListStats(strings.NewReader("1 2 9\n3 4 5\n5 6 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimestampsDropped {
		t.Fatal("decreasing third column kept as timestamps")
	}
	for i, e := range edges {
		if e.TS != 0 {
			t.Fatalf("edge %d kept TS %d after fallback", i, e.TS)
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatalf("weighted list no longer round-trips to binary: %v", err)
	}
	if buf.Bytes()[4] != binaryMagic[4] {
		t.Fatalf("fallback stream written as version %d, want 1", buf.Bytes()[4])
	}
	// A genuinely sorted column is kept.
	kept, st2, err := ReadEdgeListStats(strings.NewReader("1 2 5\n3 4 5\n5 6 9\n"))
	if err != nil || st2.TimestampsDropped {
		t.Fatalf("sorted column dropped (err=%v, dropped=%v)", err, st2.TimestampsDropped)
	}
	if kept[2].TS != 9 {
		t.Fatalf("sorted column lost: %+v", kept)
	}
}

// TestBinaryV2RoundTrip pins the timed framing: delta-encoded timestamps
// survive a write/read cycle, WriteBinary auto-selects the version, and the
// untimed output stays byte-identical to the v1 framing.
func TestBinaryV2RoundTrip(t *testing.T) {
	timed := []graph.Edge{
		graph.NewEdgeAt(1, 2, 100),
		graph.NewEdgeAt(2, 3, 100), // equal times are legal (delta 0)
		graph.NewEdgeAt(5, 9, 170),
		graph.NewEdgeAt(1, 9, 1<<40),
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, timed); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != binaryMagicV2[4] {
		t.Fatalf("timed stream written as version %d, want 2", got)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(timed) {
		t.Fatalf("round trip changed count: %d -> %d", len(timed), len(got))
	}
	for i := range timed {
		if got[i] != timed[i] {
			t.Fatalf("edge %d: %+v -> %+v", i, timed[i], got[i])
		}
	}

	// Untimed edges still produce the historical v1 bytes.
	untimed := sampleEdges()
	var v1 bytes.Buffer
	if err := WriteBinary(&v1, untimed); err != nil {
		t.Fatal(err)
	}
	if got := v1.Bytes()[4]; got != binaryMagic[4] {
		t.Fatalf("untimed stream written as version %d, want 1", got)
	}

	// Timestamp regressions cannot be delta-encoded: the writer refuses.
	var reg bytes.Buffer
	bw := NewBinaryWriterTimed(&reg)
	if err := bw.WriteEdge(graph.NewEdgeAt(1, 2, 50)); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteEdge(graph.NewEdgeAt(3, 4, 49)); err == nil {
		t.Fatal("timestamp regression accepted")
	}
	// And a v1 writer refuses timestamps rather than dropping them.
	if err := NewBinaryWriter(&bytes.Buffer{}).WriteEdge(graph.NewEdgeAt(1, 2, 5)); err == nil {
		t.Fatal("v1 writer accepted a timestamped edge")
	}
}
