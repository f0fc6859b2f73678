package stream

import (
	"bytes"
	"strings"
	"testing"

	"gps/internal/graph"
)

// FuzzBinaryDecoder exercises the binary edge-frame decoder (both framing
// versions) with arbitrary input: it must never panic, anything it accepts
// must be canonical, timestamp-preserving under a write/read round trip,
// and it must never allocate more edges than the input can physically
// encode (each record is at least two bytes, so acceptance bounds the
// output size).
func FuzzBinaryDecoder(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(binaryMagic))
	f.Add([]byte("GPSB\x02"))
	f.Add([]byte("GPSB\x03"))
	f.Add([]byte("not binary at all\n0 1\n"))
	f.Add(append([]byte(binaryMagic), 0x00, 0x01, 0x03, 0x02))
	f.Add(append([]byte(binaryMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00))
	f.Add(append([]byte(binaryMagic), 0x05))
	// v2 documents: flags byte, then records with uvarint ts deltas.
	f.Add(append([]byte(binaryMagicV2), 0x00, 0x01, 0x03))                       // flags 0: untimed records
	f.Add(append([]byte(binaryMagicV2), binaryFlagTimestamps, 0x01, 0x03))       // timed record truncated before delta
	f.Add(append([]byte(binaryMagicV2), 0xff, 0x01, 0x03, 0x02))                 // unknown flags
	f.Add(append([]byte(binaryMagicV2), binaryFlagTimestamps, 0x03, 0x03, 0x05)) // timed self loop
	// v3 documents: flags byte, records lead with an op byte.
	f.Add(append([]byte(binaryMagicV2), binaryFlagDeletions, 0x00, 0x01, 0x03))                                // ErrDeletionsNeedV3
	f.Add(append([]byte(binaryMagicV3), 0x00, 0x01, 0x03))                                                     // v3 without the deletion flag: rejected
	f.Add(append([]byte(binaryMagicV3), binaryFlagDeletions, opInsert, 0x01, 0x03))                            // insert record
	f.Add(append([]byte(binaryMagicV3), binaryFlagDeletions, opDelete, 0x01, 0x03))                            // delete record
	f.Add(append([]byte(binaryMagicV3), binaryFlagDeletions, 0x07, 0x01, 0x03))                                // unknown op byte
	f.Add(append([]byte(binaryMagicV3), binaryFlagDeletions, opDelete))                                        // truncated after op
	f.Add(append([]byte(binaryMagicV3), binaryFlagDeletions|binaryFlagTimestamps, opInsert, 0x01))             // timed, truncated
	f.Add(append([]byte(binaryMagicV3), binaryFlagDeletions|binaryFlagTimestamps, opDelete, 0x02, 0x02, 0x09)) // timed self-loop deletion
	func() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, []graph.Edge{graph.NewEdge(1, 2), graph.NewEdge(3, 70000)}); err == nil {
			f.Add(buf.Bytes())
		}
		var timed bytes.Buffer
		if err := WriteBinary(&timed, []graph.Edge{
			graph.NewEdgeAt(1, 2, 40), graph.NewEdgeAt(2, 9, 40), graph.NewEdgeAt(3, 70000, 1<<33),
		}); err == nil {
			f.Add(timed.Bytes())
		}
		var turn bytes.Buffer
		if err := WriteBinary(&turn, []graph.Edge{
			graph.NewEdgeAt(1, 2, 40), graph.NewEdgeAt(2, 9, 41).AsDeletion(), graph.NewEdgeAt(3, 70000, 1<<33),
		}); err == nil {
			f.Add(turn.Bytes())
		}
	}()
	f.Fuzz(func(t *testing.T, input []byte) {
		edges, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if len(edges) > len(input)/2 {
			t.Fatalf("decoder produced %d edges from %d bytes (over-allocation)", len(edges), len(input))
		}
		for _, e := range edges {
			if !e.Canonical() {
				t.Fatalf("decoder produced non-canonical edge %v", e)
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, edges); err != nil {
			t.Fatalf("write: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("reread: %v", err)
		}
		if len(again) != len(edges) {
			t.Fatalf("round trip changed edge count: %d -> %d", len(edges), len(again))
		}
		for i := range edges {
			if again[i] != edges[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, edges[i], again[i])
			}
		}
	})
}

// FuzzReadEdgeList exercises the edge-list parser with arbitrary input: it
// must never panic, and anything it accepts must survive a write/read round
// trip unchanged.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% other\n3 3\n 5   7 trailing\n")
	f.Add("")
	f.Add("a b\n")
	f.Add("4294967295 0\n")
	f.Add("1 2 3 4 5\n\n\n9 8\n")
	f.Add("0 1 0000\n0 1 1000")
	f.Fuzz(func(t *testing.T, input string) {
		edges, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, e := range edges {
			if !e.Canonical() {
				t.Fatalf("parser produced non-canonical edge %v", e)
			}
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, edges); err != nil {
			t.Fatalf("write: %v", err)
		}
		again, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("reread: %v", err)
		}
		if len(again) != len(edges) {
			t.Fatalf("round trip changed edge count: %d -> %d", len(edges), len(again))
		}
		for i := range edges {
			if again[i] != edges[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, edges[i], again[i])
			}
		}
	})
}
