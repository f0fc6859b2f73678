package engine

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/fault"
	"gps/internal/gen"
	"gps/internal/graph"
)

// feedBatches routes edges into p in fixed-size batches, so checkpoint
// positions land on batch boundaries.
func feedBatches(p *Parallel, edges []graph.Edge, batch int) {
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		p.ProcessBatch(edges[lo:hi])
	}
}

func engineCheckpoint(t *testing.T, p *Parallel, weightName string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteCheckpoint(&buf, weightName); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func restoreEngine(t *testing.T, doc []byte) *Parallel {
	t.Helper()
	p, _, err := ReadParallelCheckpoint(bytes.NewReader(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCrashRestartEquivalence is the crash-equivalence harness of the
// checkpoint subsystem: run the sharded engine over a fixed-seed ~1M-edge
// R-MAT stream at m=100K, checkpoint at an arbitrary batch boundary, build
// a fresh engine from the checkpoint, finish the stream on it, and require
// the merged sample and every estimate to be bit-identical to an
// uninterrupted run. The checkpoint itself must also leave the running
// engine unperturbed.
func TestCrashRestartEquivalence(t *testing.T) {
	edges := gen.RMAT(17, 8, 0.57, 0.19, 0.19, 0x6A11) // ~1M edges, with R-MAT's natural duplicates
	const m, P, batch = 100_000, 4, 8192
	cfg := core.Config{Capacity: m, Seed: 0xD06}

	full, err := NewParallel(cfg, P)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	feedBatches(full, edges, batch)
	mFull, err := full.Merge()
	if err != nil {
		t.Fatal(err)
	}

	interrupted, err := NewParallel(cfg, P)
	if err != nil {
		t.Fatal(err)
	}
	defer interrupted.Close()
	cut := (len(edges) * 2 / 5) / batch * batch // an arbitrary batch boundary
	feedBatches(interrupted, edges[:cut], batch)
	doc := engineCheckpoint(t, interrupted, "uniform")

	// The survivor keeps running after the checkpoint; taking it must not
	// have disturbed the run.
	feedBatches(interrupted, edges[cut:], batch)
	mSurvivor, err := interrupted.Merge()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, "survivor vs uninterrupted", mSurvivor, mFull)

	// The restored engine finishes the stream from the checkpoint position.
	restored := restoreEngine(t, doc)
	defer restored.Close()
	if got := restored.Processed(); got != uint64(cut) {
		t.Fatalf("restored position %d, want %d", got, cut)
	}
	if restored.Shards() != P || restored.Capacity() != m {
		t.Fatalf("restored topology %d/%d, want %d/%d", restored.Shards(), restored.Capacity(), P, m)
	}
	feedBatches(restored, edges[cut:], batch)
	mRestored, err := restored.Merge()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, "restored vs uninterrupted", mRestored, mFull)
	if a, b := core.EstimateCliques4Post(mRestored), core.EstimateCliques4Post(mFull); a != b {
		t.Fatalf("4-clique estimates diverge: %v vs %v", a, b)
	}
	if a, b := core.EstimateStars3Post(mRestored), core.EstimateStars3Post(mFull); a != b {
		t.Fatalf("3-star estimates diverge: %v vs %v", a, b)
	}
	// Snapshot must agree with Merge on the restored engine too.
	snap, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, "restored snapshot vs merge", snap, mRestored)
}

// TestCrashRestartEquivalenceUnderFaults extends the crash-equivalence
// harness with injected checkpoint failures: with a good checkpoint on
// disk, a later checkpoint attempt that dies at the payload write, the
// fsync, or the publishing rename must change nothing — no torn
// ckpt-*.gpsc, no leftover temporary, the previous file byte-identical —
// and restoring from the directory must still finish the stream
// bit-identical to an uninterrupted run.
func TestCrashRestartEquivalenceUnderFaults(t *testing.T) {
	edges := testStream(2000, 40_000, 0xC4A5)
	const m, P, batch = 5_000, 2, 1024
	cfg := core.Config{Capacity: m, Seed: 0xD07}

	full, err := NewParallel(cfg, P)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	feedBatches(full, edges, batch)
	mFull, err := full.Merge()
	if err != nil {
		t.Fatal(err)
	}

	p, err := NewParallel(cfg, P)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dir := t.TempDir()
	writeTo := func(path string) error {
		_, err := checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
			_, err := p.WriteCheckpoint(w, "uniform")
			return err
		})
		return err
	}

	cut := (len(edges) * 2 / 5) / batch * batch
	feedBatches(p, edges[:cut], batch)
	good := filepath.Join(dir, "ckpt-000001"+checkpoint.FileExt)
	if err := writeTo(good); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	feedBatches(p, edges[cut:], batch)
	for _, point := range []string{"checkpoint.write", "checkpoint.fsync", "checkpoint.rename"} {
		armFaults(t, 1, point+":error:times=1")
		err := writeTo(filepath.Join(dir, "ckpt-000002"+checkpoint.FileExt))
		fault.Disarm()
		if err == nil || !fault.IsInjected(err) {
			t.Fatalf("%s: checkpoint error = %v, want the injected fault", point, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != filepath.Base(good) {
				t.Fatalf("%s: torn artifact %q left in checkpoint dir", point, e.Name())
			}
		}
		onDisk, err := os.ReadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, goodBytes) {
			t.Fatalf("%s: previous checkpoint mutated by the failed write", point)
		}
	}

	// The surviving checkpoint restores and finishes the stream exactly.
	latest, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != good {
		t.Fatalf("Latest = %q, want the pre-fault checkpoint %q", latest, good)
	}
	f, err := os.Open(latest)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := ReadParallelCheckpoint(f, nil)
	f.Close()
	if err != nil {
		t.Fatalf("restore after faulted checkpoints: %v", err)
	}
	defer restored.Close()
	if got := restored.Processed(); got != uint64(cut) {
		t.Fatalf("restored position %d, want %d", got, cut)
	}
	feedBatches(restored, edges[cut:], batch)
	mRestored, err := restored.Merge()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, "restored-after-faults vs uninterrupted", mRestored, mFull)

	// And once the schedule clears, the next checkpoint publishes normally.
	next := filepath.Join(dir, "ckpt-000002"+checkpoint.FileExt)
	if err := writeTo(next); err != nil {
		t.Fatalf("checkpoint after faults cleared: %v", err)
	}
	if latest, err = checkpoint.Latest(dir); err != nil || latest != next {
		t.Fatalf("Latest = %q, %v; want the recovered checkpoint %q", latest, err, next)
	}
}

// TestCrashRestartEquivalenceTriangleWeight repeats the crash-restart
// property with the topology-dependent triangle weight on a clustered
// stream, where restored weights and RNG draws must interleave exactly as
// in the uninterrupted run.
func TestCrashRestartEquivalenceTriangleWeight(t *testing.T) {
	edges := testStream(4000, 60_000, 0xBEE)
	const m, P, batch = 8_000, 4, 1024
	cfg := core.Config{Capacity: m, Weight: core.TriangleWeight, Seed: 0x31}

	full, err := NewParallel(cfg, P)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	feedBatches(full, edges, batch)
	mFull, err := full.Merge()
	if err != nil {
		t.Fatal(err)
	}

	interrupted, err := NewParallel(cfg, P)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(edges) / 2 / batch * batch
	feedBatches(interrupted, edges[:cut], batch)
	doc := engineCheckpoint(t, interrupted, "triangle")
	interrupted.Close()

	restored, name, err := ReadParallelCheckpoint(bytes.NewReader(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if name != "triangle" {
		t.Fatalf("weight name %q", name)
	}
	feedBatches(restored, edges[cut:], batch)
	mRestored, err := restored.Merge()
	if err != nil {
		t.Fatal(err)
	}
	requireSameSignature(t, "restored vs uninterrupted (triangle)", mRestored, mFull)
}

// TestCheckpointEstimatesIndependentOfGOMAXPROCS writes a checkpoint at
// GOMAXPROCS 4, restores it at GOMAXPROCS 1, and requires the restored
// engine's estimates to carry the same bits as those taken at 4: a
// checkpoint moved to a host with another core count answers exactly as
// before.
func TestCheckpointEstimatesIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	edges := testStream(3000, 60_000, 0x6E0)
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"triangle", core.Config{Capacity: 6000, Weight: core.TriangleWeight, Seed: 0x41}},
		{"decayed", core.Config{Capacity: 6000, Weight: core.TriangleWeight, Seed: 0x42, Decay: core.Decay{HalfLife: 20_000}}},
	} {
		runtime.GOMAXPROCS(4)
		p, err := NewParallel(tc.cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		feedBatches(p, edges, 1024)
		doc := engineCheckpoint(t, p, "triangle")
		merged, err := p.Merge()
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		want := core.EstimatePost(merged)

		runtime.GOMAXPROCS(1)
		restored := restoreEngine(t, doc)
		merged, err = restored.Merge()
		restored.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := core.EstimatePost(merged)
		if want.Triangles == 0 || want.CovTriangleWedge == 0 {
			t.Fatalf("%s: sample closes no triangle: %+v", tc.name, want)
		}
		g, w := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := range g.NumField() {
			gf, wf := g.Field(i), w.Field(i)
			if gf.Kind() == reflect.Float64 && math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) ||
				gf.Kind() != reflect.Float64 && gf.Interface() != wf.Interface() {
				t.Errorf("%s: %s = %v restored at GOMAXPROCS 1, %v at 4", tc.name, g.Type().Field(i).Name, gf, wf)
			}
		}
	}
}

// TestCheckpointDirtyShardReuse pins the incremental checkpoint contract
// at the acceptance scale (idle 4-shard engine, m=100K): a checkpoint of an
// untouched engine serializes nothing — every shard blob is reused — and
// traffic routed to a single shard re-serializes exactly that shard. Idle
// re-checkpoints must reproduce the file byte for byte.
func TestCheckpointDirtyShardReuse(t *testing.T) {
	edges := testStream(20_000, 300_000, 0xD1)
	const m, P = 100_000, 4
	p, err := NewParallel(core.Config{Capacity: m, Seed: 3}, P)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(edges[:250_000])

	first := engineCheckpoint(t, p, "uniform")
	if _, encoded, reused := p.CheckpointStats(); encoded != P || reused != 0 {
		t.Fatalf("first checkpoint: encoded %d reused %d, want %d/0", encoded, reused, P)
	}

	// Idle: nothing moved, so nothing may be re-serialized, and the file
	// must be identical.
	second := engineCheckpoint(t, p, "uniform")
	if ckpts, encoded, reused := p.CheckpointStats(); ckpts != 2 || encoded != P || reused != P {
		t.Fatalf("idle checkpoint: ckpts %d encoded %d reused %d, want 2/%d/%d", ckpts, encoded, reused, P, P)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("idle re-checkpoint differs byte-wise")
	}

	// Dirty exactly one shard; only it may be re-serialized.
	target := shardTargeted(p, edges[250_000:], 2)
	if len(target) == 0 {
		t.Fatal("no traffic routed to shard 2")
	}
	p.ProcessBatch(target)
	third := engineCheckpoint(t, p, "uniform")
	if _, encoded, reused := p.CheckpointStats(); encoded != P+1 || reused != P+(P-1) {
		t.Fatalf("one-dirty checkpoint: encoded %d reused %d, want %d/%d", encoded, reused, P+1, P+(P-1))
	}
	if bytes.Equal(second, third) {
		t.Fatal("checkpoint unchanged despite new traffic")
	}

	// A different recorded weight name must invalidate the blob cache even
	// with no traffic: the cached bytes embed the old name.
	var renamed bytes.Buffer
	pos, err := p.WriteCheckpoint(&renamed, "adjacency")
	if err != nil {
		t.Fatal(err)
	}
	if pos != uint64(250_000+len(target)) {
		t.Fatalf("reported position %d, want %d", pos, 250_000+len(target))
	}
	if _, encoded, _ := p.CheckpointStats(); encoded != 2*P+1 {
		t.Fatalf("renamed checkpoint re-encoded %d shard blobs total, want %d", encoded, 2*P+1)
	}
	if _, name, err := ReadParallelCheckpoint(bytes.NewReader(renamed.Bytes()), nil); err != nil || name != "adjacency" {
		t.Fatalf("renamed checkpoint decodes as %q, %v", name, err)
	}

	// Restores from the idle pair must be indistinguishable, and the dirty
	// one must carry the extra traffic.
	a, b, c := restoreEngine(t, first), restoreEngine(t, second), restoreEngine(t, third)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	ma, _ := a.Merge()
	mb, _ := b.Merge()
	requireSameSignature(t, "idle restores", ma, mb)
	if c.Processed() != uint64(250_000+len(target)) {
		t.Fatalf("dirty restore position %d, want %d", c.Processed(), 250_000+len(target))
	}
}

// TestCheckpointConcurrentWithQueries takes checkpoints while ingestion and
// snapshot queries run concurrently (the -race variant of the
// crash-equivalence harness). Every checkpoint observed mid-flight must be
// a consistent batch-boundary state: restoring it and replaying the prefix
// it claims through a fresh engine yields the identical merged sample.
func TestCheckpointConcurrentWithQueries(t *testing.T) {
	edges := testStream(6_000, 120_000, 0xCC)
	const m, P, batch = 10_000, 4, 4096
	cfg := core.Config{Capacity: m, Seed: 0x77}
	p, err := NewParallel(cfg, P)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		docMu sync.Mutex
		docs  [][]byte
	)
	wg.Add(1)
	go func() { // checkpoint taker
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if _, err := p.WriteCheckpoint(&buf, "uniform"); err != nil {
				t.Error(err)
				return
			}
			docMu.Lock()
			docs = append(docs, buf.Bytes())
			docMu.Unlock()
		}
	}()
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() { // snapshot queriers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := p.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				_ = core.EstimatePost(snap)
			}
		}()
	}
	feedBatches(p, edges, batch)
	close(stop)
	wg.Wait()
	// One more at the final position so the replay set is never empty.
	docs = append(docs, engineCheckpoint(t, p, "uniform"))
	p.Close()

	checked := make(map[uint64]bool)
	for _, doc := range docs {
		restored := restoreEngine(t, doc)
		pos := restored.Processed()
		if pos%batch != 0 && pos != uint64(len(edges)) {
			t.Fatalf("checkpoint cut a batch: position %d", pos)
		}
		if checked[pos] {
			restored.Close()
			continue
		}
		checked[pos] = true
		replay, err := NewParallel(cfg, P)
		if err != nil {
			t.Fatal(err)
		}
		feedBatches(replay, edges[:pos], batch)
		mr, err := restored.Merge()
		if err != nil {
			t.Fatal(err)
		}
		mf, err := replay.Merge()
		if err != nil {
			t.Fatal(err)
		}
		requireSameSignature(t, "checkpoint replay", mr, mf)
		restored.Close()
		replay.Close()
	}
	if len(checked) == 0 {
		t.Fatal("no checkpoints verified")
	}
}

// TestCheckpointRejectsClosed pins the lifecycle contract.
func TestCheckpointRejectsClosed(t *testing.T) {
	p, err := NewParallel(core.Config{Capacity: 10, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.WriteCheckpoint(&bytes.Buffer{}, ""); err == nil {
		t.Fatal("checkpoint of closed engine succeeded")
	}
}

// TestEngineCheckpointRejectsCorruption covers container-level damage the
// per-document checksums cannot see on their own: shard count mismatches
// and trailing garbage.
func TestEngineCheckpointRejectsCorruption(t *testing.T) {
	p, err := NewParallel(core.Config{Capacity: 100, Seed: 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(testStream(200, 2000, 5))
	doc := engineCheckpoint(t, p, "uniform")

	if _, _, err := ReadParallelCheckpoint(bytes.NewReader(doc[:len(doc)-3]), nil); err == nil {
		t.Fatal("truncated container accepted")
	}
	if _, _, err := ReadParallelCheckpoint(bytes.NewReader(append(append([]byte(nil), doc...), 0x00)), nil); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	for _, off := range []int{7, len(doc) / 2, len(doc) - 20} {
		corrupt := append([]byte(nil), doc...)
		corrupt[off] ^= 0x40
		if _, _, err := ReadParallelCheckpoint(bytes.NewReader(corrupt), nil); err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
	}
}
