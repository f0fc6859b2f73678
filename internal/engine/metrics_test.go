package engine

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"gps/internal/core"
	"gps/internal/graph"
	"gps/internal/obs"
)

// TestRegisterMetrics drives the engine through ingest, snapshot and
// checkpoint, then scrapes the registry: the exposition must lint clean and
// the data-plane families must carry the activity just generated.
func TestRegisterMetrics(t *testing.T) {
	p, err := NewParallel(core.Config{Capacity: 256, Seed: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)

	batch := make([]graph.Edge, 0, 4096)
	for i := uint64(0); i < 20000; i++ {
		batch = append(batch, graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1)})
		if len(batch) == cap(batch) {
			p.ProcessBatch(batch)
			batch = batch[:0]
		}
	}
	p.ProcessBatch(batch)
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteCheckpoint(io.Discard, "uniform"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	if _, _, err := obs.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("engine exposition fails lint: %v\n%s", err, scrape)
	}

	value := func(name string) float64 {
		t.Helper()
		v, ok := scrapeValue(scrape, name)
		if !ok {
			t.Fatalf("metric %s not in scrape:\n%s", name, scrape)
		}
		return v
	}
	if got := value("gps_engine_shards"); got != 4 {
		t.Fatalf("gps_engine_shards = %g, want 4", got)
	}
	var epochs float64
	for i := 0; i < 4; i++ {
		v, ok := scrapeValue(scrape, `gps_engine_shard_epoch{shard="`+strconv.Itoa(i)+`"}`)
		if !ok {
			t.Fatalf("missing per-shard epoch %d in scrape:\n%s", i, scrape)
		}
		epochs += v
	}
	if epochs != 20000 {
		t.Fatalf("shard epochs sum to %g, want 20000", epochs)
	}
	if got := value("gps_engine_snapshots_total"); got != 1 {
		t.Fatalf("snapshots_total = %g, want 1", got)
	}
	if got := value("gps_engine_checkpoints_total"); got != 1 {
		t.Fatalf("checkpoints_total = %g, want 1", got)
	}
	if got := value("gps_engine_barrier_wait_seconds_count"); got < 2 {
		t.Fatalf("barrier_wait count = %g, want >= 2 (snapshot + checkpoint)", got)
	}
	if got := value("gps_engine_snapshot_stall_seconds_count"); got != 1 {
		t.Fatalf("snapshot_stall count = %g, want 1 (checkpoint stall is counted by the engine, not here)", got)
	}
	if got := value("gps_engine_checkpoint_encode_bytes_count"); got != 4 {
		t.Fatalf("checkpoint encode bytes count = %g, want 4 freshly encoded shard blobs", got)
	}
	if got := value("gps_engine_drain_batch_edges_count"); got == 0 {
		t.Fatal("drain_batch_edges recorded nothing")
	}
	if sum, _ := scrapeValue(scrape, "gps_engine_drain_batch_edges_sum"); sum != 20000 {
		t.Fatalf("drain_batch_edges_sum = %g, want 20000 (every routed edge drained exactly once)", sum)
	}
}

// scrapeValue finds a sample line by its exact name (including any label
// string) and returns its value.
func scrapeValue(scrape, name string) (float64, bool) {
	for _, line := range bytes.Split([]byte(scrape), []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) == 2 && string(fields[0]) == name {
			if v, err := strconv.ParseFloat(string(fields[1]), 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
