package engine

import (
	"strconv"

	"gps/internal/obs"
)

// engineMetrics holds the engine-owned histograms. The instruments exist
// from startShards on (before any registry does) so the shard consumers can
// record into them unconditionally; RegisterMetrics attaches them — plus
// scrape-time readers over the engine's existing counters — to a registry.
//
// Recording discipline: the drain instruments sit on the ingest hot path
// and record once per drained span, not per edge; the barrier/snapshot/
// checkpoint instruments are per-query cold paths.
type engineMetrics struct {
	drainNS      *obs.Histogram // span drain latency, ns
	drainEdges   *obs.Histogram // edges per drained span
	barrierNS    *obs.Histogram // admission-barrier ring-drain wait, ns
	stallNS      *obs.Histogram // snapshot/checkpoint ingestion stall, ns
	mergeNS      *obs.Histogram // snapshot merge after ingestion resumes, ns
	ckptEncNS    *obs.Histogram // checkpoint parallel-encode phase, ns
	ckptEncBytes *obs.Histogram // bytes per freshly encoded shard blob
}

func (m *engineMetrics) init() {
	if m.drainNS != nil {
		return
	}
	m.drainNS = obs.NewHistogram(obs.Latency())
	m.drainEdges = obs.NewHistogram(obs.Sizes(20))
	m.barrierNS = obs.NewHistogram(obs.Latency())
	m.stallNS = obs.NewHistogram(obs.Latency())
	m.mergeNS = obs.NewHistogram(obs.Latency())
	m.ckptEncNS = obs.NewHistogram(obs.Latency())
	m.ckptEncBytes = obs.NewHistogram(obs.Sizes(34))
}

// RegisterMetrics attaches the engine's telemetry to reg under the
// gps_engine_* namespace: data-plane gauges (per-shard ring depth, backlog,
// epochs), backpressure and scheduling counters (producer stalls, consumer
// parks/wakeups), the drain/barrier/stall/merge/encode histograms, and the
// snapshot/checkpoint bookkeeping counters. Scrape-time readers are either
// lock-free atomics or take p.mu briefly; none of them touches the
// admission lock, so scraping never stalls ingestion. labels (e.g. a
// stream name) are stamped on every sample; the per-shard samples carry
// them plus their shard label.
func (p *Parallel) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.RegisterGaugeFunc("gps_engine_shards", "Shard (and ring) count P.",
		func() float64 { return float64(len(p.shards)) }, labels...)
	reg.RegisterGaugeFunc("gps_engine_ring_capacity", "Per-shard ring capacity in edges.",
		func() float64 { return float64(len(p.shards[0].ring.buf)) }, labels...)
	reg.RegisterGaugeFunc("gps_engine_ring_backlog", "Edges queued across all rings (racy gauge).",
		func() float64 {
			total := 0
			for _, sh := range p.shards {
				total += sh.ring.depth()
			}
			return float64(total)
		}, labels...)
	for i, sh := range p.shards {
		sh := sh
		shardLabels := make([]obs.Label, len(labels), len(labels)+1)
		copy(shardLabels, labels)
		shardLabels = append(shardLabels, obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		reg.RegisterGaugeFunc("gps_engine_ring_depth", "Edges queued in one shard ring (racy gauge).",
			func() float64 { return float64(sh.ring.depth()) }, shardLabels...)
		reg.RegisterCounterFunc("gps_engine_shard_epoch", "Edges ever routed to one shard (includes queued).",
			sh.epoch.Load, shardLabels...)
	}
	reg.RegisterCounterFunc("gps_engine_ring_stalls_total",
		"Producer appends that found a ring full and waited (backpressure).",
		func() uint64 { return p.sumRings(func(r *ring) uint64 { return r.stalls.Load() }) }, labels...)
	reg.RegisterCounterFunc("gps_engine_ring_parks_total",
		"Consumer sleeps on an empty ring.",
		func() uint64 { return p.sumRings(func(r *ring) uint64 { return r.parks.Load() }) }, labels...)
	reg.RegisterCounterFunc("gps_engine_ring_wakeups_total",
		"Consumer broadcasts to waiting producers or barriers.",
		func() uint64 { return p.sumRings(func(r *ring) uint64 { return r.wakeups.Load() }) }, labels...)

	reg.RegisterHistogram("gps_engine_drain_batch_seconds",
		"Shard consumer latency per drained ring span.", p.met.drainNS, labels...)
	reg.RegisterHistogram("gps_engine_drain_batch_edges",
		"Edges per drained ring span.", p.met.drainEdges, labels...)
	reg.RegisterHistogram("gps_engine_barrier_wait_seconds",
		"Ring-drain wait inside the admission barrier (per Merge/Snapshot/Checkpoint).", p.met.barrierNS, labels...)
	reg.RegisterHistogram("gps_engine_snapshot_stall_seconds",
		"Ingestion stall per snapshot or checkpoint: barrier plus dirty-shard clone.", p.met.stallNS, labels...)
	reg.RegisterHistogram("gps_engine_snapshot_merge_seconds",
		"Merge of the shard clones per snapshot that found a shard dirty, after ingestion resumes.", p.met.mergeNS, labels...)

	reg.RegisterCounterFunc("gps_engine_snapshots_total", "Snapshots taken.",
		func() uint64 { s, _, _ := p.SnapshotStats(); return s }, labels...)
	reg.RegisterCounterFunc("gps_engine_snapshot_shards_cloned_total",
		"Dirty shards cloned by snapshots and checkpoints.",
		func() uint64 { _, c, _ := p.SnapshotStats(); return c }, labels...)
	reg.RegisterCounterFunc("gps_engine_snapshot_shards_reused_total",
		"Clean shards that reused their previous immutable clone.",
		func() uint64 { _, _, r := p.SnapshotStats(); return r }, labels...)

	reg.RegisterCounterFunc("gps_engine_shard_restarts_total", helpShardRestarts,
		p.restartsTotal.Load, labels...)
	reg.RegisterCounterFunc("gps_engine_shard_lost_edges_total", helpShardLostEdges,
		p.LostEdges, labels...)
	reg.RegisterGaugeFunc("gps_engine_shards_degraded", helpShardsDegraded,
		func() float64 { shards, _ := p.Health(); return degradedShards(shards) }, labels...)

	reg.RegisterCounterFunc("gps_engine_checkpoints_total", "Checkpoints serialized.",
		func() uint64 { c, _, _ := p.CheckpointStats(); return c }, labels...)
	reg.RegisterCounterFunc("gps_engine_checkpoint_shards_encoded_total",
		"Shard blobs freshly serialized by checkpoints.",
		func() uint64 { _, e, _ := p.CheckpointStats(); return e }, labels...)
	reg.RegisterCounterFunc("gps_engine_checkpoint_blobs_reused_total",
		"Clean shards whose cached checkpoint blob was reused byte-for-byte.",
		func() uint64 { _, _, r := p.CheckpointStats(); return r }, labels...)
	reg.RegisterHistogram("gps_engine_checkpoint_encode_seconds",
		"Parallel shard-encode phase per checkpoint (off the ingest lock).", p.met.ckptEncNS, labels...)
	reg.RegisterHistogram("gps_engine_checkpoint_encode_bytes",
		"Bytes per freshly encoded shard blob.", p.met.ckptEncBytes, labels...)

	if p.decay {
		reg.RegisterGaugeFunc("gps_engine_decay_horizon",
			"Largest event time routed to any shard (0 before the first edge).",
			func() float64 { return float64(p.horizon.Load()) }, labels...)
	}
}

// The help texts of the supervisor counters, which plain and windowed
// streams both export.
const (
	helpShardRestarts  = "Shard consumer panics recovered by the supervisor."
	helpShardLostEdges = "Edges dropped by lossy shard recoveries (gaps, quarantines, rebuilds)."
	helpShardsDegraded = "Shards whose sampler has diverged from the fault-free run (sticky)."
)

// degradedShards is the gps_engine_shards_degraded reading: how many of
// the shards a Health call reports are degraded.
func degradedShards(shards []ShardHealth) float64 {
	n := 0
	for _, h := range shards {
		if h.Degraded {
			n++
		}
	}
	return float64(n)
}

func (p *Parallel) sumRings(f func(*ring) uint64) uint64 {
	var total uint64
	for _, sh := range p.shards {
		total += f(sh.ring)
	}
	return total
}
