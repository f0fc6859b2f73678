package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"gps/internal/core"
	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/stream"
)

// replayPlan sizes the replay workload. One pass is the paper's one-pass
// experiment: every edge of the stream through a fresh core.InStream, with
// core.EstimatePost on the live sampler at evenly spaced positions. A run
// repeats the pass over the same decoded stream, each pass with its own
// sampler seed, and reports the median pass, so one slow moment on a
// shared host moves no metric and the passes are independent replicates
// for the accuracy gate.
type replayPlan struct {
	scale, edgeFactor int // R-MAT size: 2^scale nodes, edgeFactor·2^scale edges
	capacity          int // reservoir size m
	passes            int
	posts             int // EstimatePost calls per pass
	setups            int // set-ups timed for setup_s
}

func planReplay(seconds int, traced bool) replayPlan {
	// A pass over the 1M-edge scale-16 stream at m=50K takes about 4 s on
	// a 2-core host, posts included; the triangle-weighted sample is dense
	// enough there that admission, not the rejection fast path, dominates.
	p := replayPlan{scale: 16, edgeFactor: 16, capacity: 50_000, posts: 8, setups: 15}
	p.passes = int(math.Round(float64(seconds) / 4))
	if p.passes < 1 {
		p.passes = 1
	}
	if traced && p.passes < 2 {
		p.passes = 2 // a traced run alternates untraced and traced passes
	}
	return p
}

// replayPass is what one pass measured and its final estimates.
type replayPass struct {
	Traced    bool           `json:"traced"`
	WallNS    int64          `json:"wall_ns"`
	ProcessNS int64          `json:"process_ns"` // time inside InStream.Process
	PostNS    []int64        `json:"post_ns"`    // each EstimatePost call
	InStream  core.Estimates `json:"instream"`
	Post      core.Estimates `json:"post"`
	Accepts   uint64         `json:"accepts"`
}

// replayReport is what the replay child hands back to the benchmark.
type replayReport struct {
	Edges    int          `json:"edges"`
	SetupNS  []int64      `json:"setup_ns"`
	DecodeNS []int64      `json:"decode_ns"`
	Passes   []replayPass `json:"passes"`
	CPUNS    int64        `json:"cpu_ns"` // user+system over the timed phase
	// A traced run checkpoints the last pass's estimator as gps-sample
	// -checkpoint-out does and restores it, after the timed phase.
	CheckpointBytes int     `json:"checkpoint_bytes,omitempty"`
	RestoreNS       []int64 `json:"restore_ns,omitempty"`
	RestoreDiff     string  `json:"restore_diff,omitempty"` // set when the restore differs
}

func runReplay(o *options) (*outcome, error) { return replayWith(o, planReplay(o.seconds, o.trace)) }

func replayWith(o *options, plan replayPlan) (*outcome, error) {
	edges := gen.RMAT(plan.scale, plan.edgeFactor, 0.57, 0.19, 0.19, o.seed)
	perm := stream.Collect(stream.Permute(edges, o.seed^0x5EED))
	truth := exact.Count(graph.BuildStatic(perm))
	in := filepath.Join(o.workDir, "replay.gpsb")
	if err := writeBinaryFile(in, perm); err != nil {
		return nil, err
	}
	edges, perm = nil, nil

	// The estimator runs in a child process that never held the
	// generator's state, so its peak RSS is the library user's.
	reportPath := filepath.Join(o.workDir, "replay-report.json")
	args := []string{replayChildArg,
		"-in", in, "-out", reportPath, "-spans", o.spans,
		"-m", strconv.Itoa(plan.capacity), "-seed", strconv.FormatUint(o.seed, 10),
		"-passes", strconv.Itoa(plan.passes), "-posts", strconv.Itoa(plan.posts),
		"-setups", strconv.Itoa(plan.setups), "-trace=" + strconv.FormatBool(o.trace)}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	proc, err := startChild(self, args, []string{"GOMAXPROCS=" + strconv.Itoa(o.procs)}, nil)
	if err != nil {
		return nil, err
	}
	if err := proc.wait(); err != nil {
		return nil, fmt.Errorf("replay child: %v\n%s", err, proc.stderr)
	}
	var rep replayReport
	if err := readJSON(reportPath, &rep); err != nil {
		return nil, err
	}

	out := newOutcome()
	out.gateErrs = replayGates(&rep, truth)
	var untraced, traced []replayPass
	for _, p := range rep.Passes {
		if p.Traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	var rates, posts, passPosts, walls []float64
	for _, p := range untraced {
		rates = append(rates, float64(rep.Edges)/(float64(p.ProcessNS)/1e9))
		walls = append(walls, float64(p.WallNS))
		var sum float64
		for _, ns := range p.PostNS {
			posts = append(posts, float64(ns)/1e6)
			sum += float64(ns) / 1e6
		}
		passPosts = append(passPosts, sum/float64(len(p.PostNS)))
	}
	var setups []float64
	for _, ns := range rep.SetupNS {
		setups = append(setups, float64(ns)/1e9)
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = float64(proc.rusage().Maxrss) / 1024 // Maxrss is in KiB on Linux
	m["cpu_s"] = float64(rep.CPUNS) / 1e9
	m["edges_per_s"] = median(rates)
	m["query_ms"] = median(passPosts)
	out.attempted = int64(len(rep.Passes)) * int64(rep.Edges+plan.posts)

	if o.trace {
		spans, err := readSpans(o.spans)
		if err != nil {
			return nil, err
		}
		st := ledger(spans)
		var decode []float64
		for _, ns := range rep.DecodeNS {
			decode = append(decode, float64(ns))
		}
		m["query_p95_ms"] = quantile(posts, 0.95)
		m["stream.decode_ns_per_edge"] = median(decode) / float64(rep.Edges)
		m["stream.wire_bytes_per_edge"] = float64(fileSize(in)) / float64(rep.Edges)
		// No server and no engine: the library user has no HTTP requests,
		// queue, rings or shard snapshots.
		for _, name := range []string{"serve.ingest_posts", "serve.ingest_refused_ratio", "serve.queue_batches_p50",
			"engine.drain_batch_edges_mean", "engine.ring_stalls", "engine.ring_parks",
			"engine.snapshot_clone_ratio", "engine.window_panes_per_query"} {
			m[name] = 0
		}
		proc := st["core.InStream.Process"]
		m["core.process_ns_per_edge"] = float64(proc.Self) / float64(proc.Items)
		m["core.estimate_post_ms_p50"] = median(durations(spans, "core.EstimatePost"))
		var accepts []float64
		for _, p := range rep.Passes {
			accepts = append(accepts, float64(p.Accepts)/float64(p.Post.Arrivals))
		}
		m["core.accept_ratio"] = median(accepts)
		var restores []float64
		for _, ns := range rep.RestoreNS {
			restores = append(restores, float64(ns)/1e6)
		}
		m["checkpoint.restore_ms"] = median(restores)
		m["checkpoint.bytes"] = float64(rep.CheckpointBytes)
		var tracedWalls []float64
		for _, p := range traced {
			tracedWalls = append(tracedWalls, float64(p.WallNS))
		}
		// Ledger per pass: InStream.Process and EstimatePost, against the
		// untraced pass.
		perPass := float64(len(traced)) * 1e6 // ns over the traced passes → ms per pass
		stageSum := float64(proc.Self+st["core.EstimatePost"].Self) / perPass
		out.diag["ledger_ms_per_pass"] = map[string]float64{
			"core.InStream.Process": float64(proc.Self) / perPass,
			"core.EstimatePost":     float64(st["core.EstimatePost"].Self) / perPass,
		}
		m["ledger.e2e_ms_per_op"] = median(walls) / 1e6
		m["ledger.stage_sum_ms_per_op"] = stageSum
		m["ledger.residual_ms_per_op"] = m["ledger.e2e_ms_per_op"] - stageSum
		m["ledger.trace_overhead_ratio"] = median(tracedWalls)/median(walls) - 1
		out.diag["stages"] = st
	}
	out.diag["edges"] = rep.Edges
	out.diag["passes"] = len(untraced)
	out.diag["post_estimate_samples"] = len(posts)
	out.diag["exact"] = truth
	out.diag["instream"] = rep.Passes[0].InStream
	out.diag["post"] = rep.Passes[0].Post
	return out, nil
}

// replayGates checks the final estimates of every pass against the exact
// counts: the in-stream and post-stream triangle and wedge estimates must
// each lie within 4 standard errors, by the estimators' own variance
// estimates, in a majority of the passes. One pass alone is not enough: a
// sample that misses the heaviest triangles underestimates the count and
// its variance together, so the post-stream z-score has a heavy lower tail
// (about one pass in fifty lands beyond 4 on this stream while the mean of
// the estimates stays on the exact count). A biased or broken estimator
// moves every pass and still fails.
func replayGates(rep *replayReport, truth exact.Counts) []string {
	var errs []string
	if int64(rep.Edges) != truth.Edges {
		errs = append(errs, fmt.Sprintf("stream of %d edges, exact graph has %d edges", rep.Edges, truth.Edges))
	}
	check := func(kind, what string, pick func(replayPass) (est, variance float64), want int64) {
		within := 0
		var worst string
		for i, p := range rep.Passes {
			est, variance := pick(p)
			se := math.Sqrt(math.Max(variance, 0))
			if z := math.Abs(est - float64(want)); z <= 4*se {
				within++
			} else if worst == "" {
				worst = fmt.Sprintf("pass %d: %.6g is %.3g standard errors (se %.4g) off", i, est, z/se, se)
			}
		}
		if 2*within <= len(rep.Passes) {
			errs = append(errs, fmt.Sprintf("%s %s estimate within 4 standard errors of the exact %d in %d of %d passes (%s)",
				kind, what, want, within, len(rep.Passes), worst))
		}
	}
	check("in-stream", "triangle", func(p replayPass) (float64, float64) { return p.InStream.Triangles, p.InStream.VarTriangles }, truth.Triangles)
	check("in-stream", "wedge", func(p replayPass) (float64, float64) { return p.InStream.Wedges, p.InStream.VarWedges }, truth.Wedges)
	check("post-stream", "triangle", func(p replayPass) (float64, float64) { return p.Post.Triangles, p.Post.VarTriangles }, truth.Triangles)
	check("post-stream", "wedge", func(p replayPass) (float64, float64) { return p.Post.Wedges, p.Post.VarWedges }, truth.Wedges)
	for i, p := range rep.Passes {
		if p.Post.Arrivals != uint64(rep.Edges) {
			errs = append(errs, fmt.Sprintf("pass %d: %d arrivals from a stream of %d edges", i, p.Post.Arrivals, rep.Edges))
		}
	}
	if rep.RestoreDiff != "" {
		errs = append(errs, rep.RestoreDiff)
	}
	return errs
}

// replayChild is the library user: it decodes the encoded stream, builds
// the estimator and runs the timed passes.
func replayChild(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet(replayChildArg, flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "GPSB stream")
	outPath := fs.String("out", "", "report file")
	spansPath := fs.String("spans", "", "span dump")
	capacity := fs.Int("m", 0, "reservoir size")
	seed := fs.Uint64("seed", 1, "sampler seed")
	passes := fs.Int("passes", 1, "timed passes")
	posts := fs.Int("posts", 1, "EstimatePost calls per pass")
	setups := fs.Int("setups", 1, "timed set-ups")
	traced := fs.Bool("trace", false, "alternate untraced and traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := replayChildRun(*in, *outPath, *spansPath, core.Config{Capacity: *capacity, Weight: core.TriangleWeight, Seed: *seed},
		*passes, *posts, *setups, *traced); err != nil {
		fmt.Fprintf(stderr, "replay child: %v\n", err)
		return 1
	}
	return 0
}

// traceBatch is the number of edges one traced InStream.Process span
// covers.
const traceBatch = 1 << 16

func replayChildRun(in, outPath, spansPath string, cfg core.Config, passes, posts, setups int, traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep := replayReport{}
	var edges []graph.Edge
	var is *core.InStream
	for i := 0; i < setups; i++ {
		req := fmt.Sprintf("setup-%d", i)
		root := tr.begin("replay.setup", 0, req)
		start := time.Now()
		data, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		d0 := time.Now()
		id := tr.begin("stream.ReadBinaryStats", root, req)
		es, _, err := stream.ReadBinaryStats(bytes.NewReader(data))
		if err != nil {
			return err
		}
		tr.end(id, len(es))
		decode := time.Since(d0)
		id = tr.begin("core.NewInStream", root, req)
		est, err := core.NewInStream(cfg)
		if err != nil {
			return err
		}
		tr.end(id, 0)
		rep.SetupNS = append(rep.SetupNS, int64(time.Since(start)))
		tr.end(root, len(es))
		rep.DecodeNS = append(rep.DecodeNS, int64(decode))
		edges, is = es, est
	}
	rep.Edges = len(edges)

	runtime.GC() // the set-ups' garbage is not the timed phase's work
	var ru0 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return err
	}
	for p := 0; p < passes; p++ {
		if p > 0 {
			pcfg := cfg
			pcfg.Seed = cfg.Seed + uint64(p)
			var err error
			if is, err = core.NewInStream(pcfg); err != nil {
				return err
			}
		}
		var ptr *tracer
		if traced && p%2 == 1 {
			ptr = tr
		}
		rep.Passes = append(rep.Passes, runReplayPass(edges, is, posts, ptr, fmt.Sprintf("pass-%d", p)))
	}
	var ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return err
	}
	rep.CPUNS = (ru1.Utime.Nano() - ru0.Utime.Nano()) + (ru1.Stime.Nano() - ru0.Stime.Nano())
	if tr != nil {
		if err := replayCheckpoint(&rep, is, tr); err != nil {
			return err
		}
		if err := tr.write(spansPath); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, b, 0o644)
}

// replayCheckpoint writes a checkpoint of is and restores it restoreReps
// times, timing each restore; a restore whose estimates differ from is
// fails the gate.
func replayCheckpoint(rep *replayReport, is *core.InStream, tr *tracer) error {
	var buf bytes.Buffer
	id := tr.begin("checkpoint.InStream.WriteCheckpoint", 0, "checkpoint")
	err := is.WriteCheckpoint(&buf, "triangle", fmt.Sprintf("edges=%d", rep.Edges))
	tr.end(id, 0)
	if err != nil {
		return err
	}
	rep.CheckpointBytes = buf.Len()
	for i := 0; i < restoreReps; i++ {
		runtime.GC()
		id := tr.begin("checkpoint.ReadInStreamCheckpoint", 0, "restore-"+strconv.Itoa(i))
		t0 := time.Now()
		back, _, err := core.ReadInStreamCheckpoint(bytes.NewReader(buf.Bytes()), core.ResolveWeight)
		rep.RestoreNS = append(rep.RestoreNS, int64(time.Since(t0)))
		tr.end(id, 0)
		if err != nil {
			return err
		}
		if got, want := back.Estimates(), is.Estimates(); got != want {
			rep.RestoreDiff = fmt.Sprintf("restored checkpoint estimates %+v differ from the estimator's %+v", got, want)
		}
	}
	return nil
}

// runReplayPass feeds every edge through is, running EstimatePost after
// each of posts equal stretches; the last one, at the end of the stream,
// gives the pass's post-stream estimates.
func runReplayPass(edges []graph.Edge, is *core.InStream, posts int, tr *tracer, req string) replayPass {
	pass := replayPass{Traced: tr != nil}
	root := tr.begin("replay.pass", 0, req)
	start := time.Now()
	n := len(edges)
	for k := 1; k <= posts; k++ {
		lo, hi := (k-1)*n/posts, k*n/posts
		t0 := time.Now()
		if tr == nil {
			for _, e := range edges[lo:hi] {
				is.Process(e)
			}
		} else {
			for b := lo; b < hi; b += traceBatch {
				bh := min(b+traceBatch, hi)
				id := tr.begin("core.InStream.Process", root, req)
				for _, e := range edges[b:bh] {
					is.Process(e)
				}
				tr.end(id, bh-b)
			}
		}
		t1 := time.Now()
		pass.ProcessNS += int64(t1.Sub(t0))
		id := tr.begin("core.EstimatePost", root, req)
		pass.Post = core.EstimatePost(is.Sampler())
		tr.end(id, 0)
		pass.PostNS = append(pass.PostNS, int64(time.Since(t1)))
	}
	pass.WallNS = int64(time.Since(start))
	tr.end(root, n)
	pass.InStream, pass.Accepts = is.Estimates(), is.Sampler().Accepts()
	return pass
}

func writeBinaryFile(path string, edges []graph.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := stream.WriteBinary(bw, edges); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func readSpans(path string) ([]span, error) {
	var spans []span
	err := readJSON(path, &spans)
	return spans, err
}
