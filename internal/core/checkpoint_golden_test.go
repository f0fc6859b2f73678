package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gps/internal/graph"
)

// checkpointGoldens are the SHA-256 digests of GPSC documents written after
// fixed-seed runs over goldenStream. The checkpoint format is a stability
// contract: a restored sampler must read the same bytes an earlier release
// wrote, so any change here is a format change, not a refactor.
var checkpointGoldens = map[string]string{
	"sampler/uniform":    "488ad9e9d70b00cb37cb4479d622bad82e41dc6930f5ce6ef360e143e4fe76ef",
	"sampler/triangle":   "811c8fd694dbfb1ac8def54e760bdc6c55a35336958b3e0254ede54a6f141dcc",
	"sampler/decayed":    "b7e1cc688b0c9e9daab833577478ec059fabb92fb7d6fefe12c4a07e0613bcd5",
	"sampler/turnstile":  "884b1c46bf24626ea4b57a20a34a7d9483d23df08fd6058e9c19dfb3f4347841",
	"instream/undecayed": "da4964a9c0387b3dc52c92bfffce42808f1b9749779c27e602952043b8c2b6f4",
	"instream/decayed":   "51258091dbfb8a71f07bc40b37093d0b9c0a902340774084c8691a2990a2a483",
	"instream/turnstile": "6f7cdf402cdd519566840df9203d2a15b3d42c4a1a2271e26b50f2daa6a63016",
}

// TestCheckpointGoldenBytes writes each golden document and compares its
// digest. It also pins where an in-stream estimator's covariance words
// live: a plain-sampler document written from an InStream's Sampler() is
// byte-identical to the document of a plain Sampler run over the same
// stream, because the sampler payload carries only the sample.
func TestCheckpointGoldenBytes(t *testing.T) {
	turnstile := func() []graph.Edge { return withDeletions(goldenStream()) }
	docs := map[string][]byte{}
	for _, c := range []struct {
		name  string
		decay Decay
		edges func() []graph.Edge
	}{{"triangle", Decay{}, goldenStream}, {"decayed", Decay{HalfLife: 3000}, goldenStream}, {"turnstile", Decay{}, turnstile}} {
		cfg := Config{Capacity: 700, Weight: TriangleWeight, Seed: 0xC4, Decay: c.decay}
		s, err := NewSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.edges() {
			s.Process(e)
			in.Process(e)
		}
		docs["sampler/"+c.name] = checkpointBytes(t, s, "triangle")
		var buf bytes.Buffer
		if err := in.WriteCheckpoint(&buf, "triangle", "golden"); err != nil {
			t.Fatal(err)
		}
		mode := c.name
		if mode == "triangle" {
			mode = "undecayed"
		}
		docs["instream/"+mode] = buf.Bytes()
		if !bytes.Equal(checkpointBytes(t, in.Sampler(), "triangle"), docs["sampler/"+c.name]) {
			t.Errorf("%s: an InStream's sampler document differs from the plain sampler's", c.name)
		}
	}
	uniform, err := NewSampler(Config{Capacity: 700, Seed: 0xC4})
	if err != nil {
		t.Fatal(err)
	}
	processAll(t, uniform, goldenStream())
	docs["sampler/uniform"] = checkpointBytes(t, uniform, "uniform")

	for name, want := range checkpointGoldens {
		sum := sha256.Sum256(docs[name])
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}
