package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gps/internal/core"
)

// TestEngineCheckpointGoldenBytes pins the SHA-256 of the GPSC documents a
// sharded engine and a windowed turnstile engine write after fixed-seed
// runs: restoring what an earlier release wrote depends on these bytes, so
// a change here is a format change, not a refactor.
func TestEngineCheckpointGoldenBytes(t *testing.T) {
	edges := testStream(600, 6000, 0x601D)

	p, err := NewParallel(core.Config{Capacity: 500, Weight: core.TriangleWeight, Seed: 0x601D}, 2)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(p, edges, 1000)
	parallel := engineCheckpoint(t, p, "triangle")
	p.Close()

	w, err := NewWindowed(WindowConfig{Capacity: 300, Weight: core.TriangleWeight, Seed: 0x601D,
		Shards: 2, PaneWidth: 1000, Window: 3000})
	if err != nil {
		t.Fatal(err)
	}
	timed := append(edges[:0:0], edges...)
	for i := range timed {
		timed[i].TS = uint64(1 + i)
		if i%9 == 7 {
			timed[i] = timed[i-2].At(timed[i].TS).AsDeletion()
		}
	}
	for lo := 0; lo < len(timed); lo += 1000 {
		if err := w.ProcessBatch(timed[lo:min(lo+1000, len(timed))]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteCheckpoint(&buf, "triangle"); err != nil {
		t.Fatal(err)
	}
	w.Close()

	for _, c := range []struct {
		name string
		doc  []byte
		want string
	}{
		{"parallel", parallel, "3706cc9b884973b424161401f2ef991dc4aeeb96f587125927698aa0002f8cfa"},
		{"windowed", buf.Bytes(), "f1d4840d362bbfc7f34dd5d113a898041ceb5ace02db99a943eb7250939b0995"},
	} {
		sum := sha256.Sum256(c.doc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
