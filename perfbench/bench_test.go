package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/obs"
	"gps/internal/stream"
)

// serveBin is a gps-serve binary built from the sources under test.
var serveBin string

func TestMain(m *testing.M) {
	// The replay workload re-executes its own binary as the library-user
	// child; under test that binary is the test binary.
	if len(os.Args) > 1 && os.Args[1] == replayChildArg {
		os.Exit(replayChild(os.Args[2:], os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "gps-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "gps/cmd/gps-serve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build gps-serve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	stopAllChildren()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyOptions(t *testing.T, workload string, traced bool) *options {
	dir := t.TempDir()
	return &options{workload: workload, seed: 7, seconds: 1, trace: traced, serveBin: serveBin,
		workDir: dir, spans: filepath.Join(dir, "spans.json"), procs: runtime.GOMAXPROCS(0)}
}

var (
	toyReplay = replayPlan{scale: 10, edgeFactor: 8, capacity: 1000, passes: 2, posts: 2, setups: 2}
	toyIngest = ingestPlan{baseScale: 10, capacity: 2000, batch: 512, warmCopies: 1, roundCopies: 3, rounds: 2, boots: 3}
	toyLive   = livePlan{baseScale: 10, capacity: 500, window: 8000, batch: 256,
		ingestEvery: 10 * time.Millisecond, queryEvery: 40 * time.Millisecond,
		deleteEvery: 8, deleteLag: 64, warm: 12000, timed: time.Second, boots: 2, maxLag: 2 * time.Second}
)

// checkReport runs report on a toy outcome and checks the printed result:
// correct, exactly the metrics of its kind of run, each with its unit.
func checkReport(t *testing.T, o *options, out *outcome) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := report(o, fingerprint(), out, &stdout, &stderr); code != 0 {
		t.Fatalf("report exit %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
		t.Fatalf("result %+v, want correct with %d metrics", res, len(want))
	}
	for _, name := range want {
		if res.Metrics[name].Unit != metricUnits[name] {
			t.Errorf("metric %s: unit %q, want %q", name, res.Metrics[name].Unit, metricUnits[name])
		}
	}
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, tc := range []struct {
		workload string
		run      func(*options) (*outcome, error)
	}{
		{"replay", func(o *options) (*outcome, error) { return replayWith(o, toyReplay) }},
		{"ingest", func(o *options) (*outcome, error) {
			p := toyIngest
			if o.trace {
				p.rounds = 4
			}
			return ingestWith(o, p)
		}},
		{"live", func(o *options) (*outcome, error) { return liveWith(o, toyLive) }},
	} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", tc.workload, traced), func(t *testing.T) {
				o := toyOptions(t, tc.workload, traced)
				out, err := tc.run(o)
				if err != nil {
					t.Fatal(err)
				}
				if out.invalid != "" || len(out.gateErrs) > 0 {
					t.Fatalf("invalid %q, gates %q", out.invalid, out.gateErrs)
				}
				if tc.workload == "replay" && !traced && out.diag["passes"] != toyReplay.passes {
					t.Fatalf("untraced replay timed %v untraced passes, want %d", out.diag["passes"], toyReplay.passes)
				}
				checkReport(t, o, out)
			})
		}
	}
}

// TestReplayGateFails runs the traced replay child on a toy stream and
// checks the gate against the exact counts of that stream and of another
// one, that it takes a majority of the passes to pass, and that a
// checkpoint restore that differs fails it.
func TestReplayGateFails(t *testing.T) {
	dir := t.TempDir()
	edges := stream.Collect(stream.Permute(gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3), 4))
	in := filepath.Join(dir, "s.gpsb")
	if err := writeBinaryFile(in, edges); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 1000, Weight: core.TriangleWeight, Seed: 5}
	if err := replayChildRun(in, filepath.Join(dir, "r.json"), filepath.Join(dir, "s.json"), cfg, 3, 2, 1, true); err != nil {
		t.Fatal(err)
	}
	var rep replayReport
	if err := readJSON(filepath.Join(dir, "r.json"), &rep); err != nil {
		t.Fatal(err)
	}
	truth := exact.Count(graph.BuildStatic(edges))
	if errs := replayGates(&rep, truth); len(errs) != 0 {
		t.Fatalf("gate fails on the true counts: %q", errs)
	}
	other := exact.Count(graph.BuildStatic(gen.RMAT(10, 8, 0.45, 0.25, 0.25, 9)))
	other.Edges = int64(len(edges))
	if errs := replayGates(&rep, other); len(errs) == 0 {
		t.Fatal("gate passes against the exact counts of another graph")
	}
	post0, post1 := rep.Passes[0].Post.Triangles, rep.Passes[1].Post.Triangles
	rep.Passes[0].Post.Triangles = 0
	if errs := replayGates(&rep, truth); len(errs) != 0 {
		t.Fatalf("one pass off fails the gate: %q", errs)
	}
	rep.Passes[1].Post.Triangles = 0
	if errs := replayGates(&rep, truth); len(errs) != 1 {
		t.Fatalf("gate passes with two of three passes off: %q", errs)
	}
	rep.Passes[0].Post.Triangles, rep.Passes[1].Post.Triangles = post0, post1
	if rep.CheckpointBytes == 0 || len(rep.RestoreNS) != restoreReps {
		t.Fatalf("traced child restored its checkpoint %d times from %d bytes", len(rep.RestoreNS), rep.CheckpointBytes)
	}
	rep.RestoreDiff = "restored estimates differ"
	if errs := replayGates(&rep, truth); len(errs) != 1 {
		t.Fatalf("gate passes with a restore that differs: %q", errs)
	}
}

// exportOf builds a checkpoint of a fresh engine with the given seed fed
// the warm batches: a reference that differs from the server's by seed.
func exportOf(t *testing.T, s engine.Stream, weight string, warm [][]byte) []byte {
	t.Helper()
	defer s.Close()
	for _, b := range warm {
		edges, err := stream.ReadBinary(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := s.WriteCheckpoint(&buf, weight); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestGateFails runs one toy round and checks the gates against the
// right reference, a reference built with another seed and a wrong
// arrival count.
func TestIngestGateFails(t *testing.T) {
	o := toyOptions(t, "ingest", false)
	in, err := buildIngestInputs(toyIngest, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, export, err := prepareIngest(o, toyIngest, in.warm)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := launchServer(o, "-restore", ckpt)
	if err != nil {
		t.Fatal(err)
	}
	rd, _, err := ingestOneRound(srv, in.batches, in.roundEdges, nil, "round")
	srv.shutdown()
	if err != nil {
		t.Fatal(err)
	}
	rounds := []*ingestRound{rd}
	sent := in.warmEdges + in.roundEdges
	ref, err := parallelReference(export, in.batches, nil, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if errs := ingestGates(rounds, sent, ref); len(errs) != 0 {
		t.Fatalf("gates fail on the true reference: %q", errs)
	}
	if errs := ingestGates(rounds, sent+1, ref); len(errs) != 1 {
		t.Fatalf("arrival gate passes on a wrong count: %q", errs)
	}
	p, err := engine.NewParallel(core.Config{Capacity: toyIngest.capacity, Seed: o.seed + 1}, o.procs)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := parallelReference(exportOf(t, p, "uniform", in.warm), in.batches, nil, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if errs := ingestGates(rounds, sent, wrong); len(errs) != 1 {
		t.Fatalf("estimate gate passes against another seed's reference: %q", errs)
	}
}

// TestLiveGatesFail runs one toy phase and checks the gates against the
// right references, references built with another seed, a wrong arrival
// count, and the validity check against a phase that fell behind.
func TestLiveGatesFail(t *testing.T) {
	o := toyOptions(t, "live", false)
	plan := toyLive
	in, err := buildLiveInputs(plan, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := writeManifest(o, plan)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, exports, err := prepareLive(o, plan, in, manifest)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := launchServer(o, "-restore", ckpt, "-streams", manifest)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := liveOnePhase(srv, plan, in, nil)
	srv.shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if ph.invalid != "" {
		t.Fatalf("toy phase invalid: %s", ph.invalid)
	}
	runs := []*livePhase{ph}
	want := uint64(plan.warm + in.timedRecs)
	sh, err := liveShadow(exports, in, plan, nil, nil, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if errs := liveGates(runs, want, sh.final); len(errs) != 0 {
		t.Fatalf("gates fail on the true references: %q", errs)
	}
	if errs := liveGates(runs, want+1, sh.final); len(errs) != 2 {
		t.Fatalf("arrival gates pass on a wrong count: %q", errs)
	}
	p, err := engine.NewParallel(core.Config{Capacity: plan.capacity, Weight: core.TriangleWeight, Seed: o.seed + 1}, o.procs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := engine.NewWindowed(engine.WindowConfig{Capacity: plan.capacity, Weight: core.TriangleWeight,
		Seed: o.seed + 1, Shards: o.procs, PaneWidth: plan.window / 4, Window: plan.window})
	if err != nil {
		t.Fatal(err)
	}
	wrong := map[string][]byte{"default": exportOf(t, p, "triangle", in.warmDef), "win": exportOf(t, w, "triangle", in.warmWin)}
	other, err := liveShadow(wrong, in, plan, nil, nil, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if errs := liveGates(runs, want, other.final); len(errs) != 2 {
		t.Fatalf("estimate gates pass against another seed's references: %q", errs)
	}

	late := *ph
	late.lastQueryAt = 2 * plan.maxLag
	if late.validity(plan) == "" {
		t.Fatal("a phase that fell behind its query schedule counts as valid")
	}
	late = *ph
	late.queueEnd = late.queueStart + 10
	if late.validity(plan) == "" {
		t.Fatal("a phase whose backlog grew counts as valid")
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against what the workloads
// report: the declared metrics are, in order, the ones every run prints,
// each with the unit the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(decls []metricDecl, printed []string, bounded bool) {
		var names []string
		for _, d := range decls {
			names = append(names, d.Name)
			if d.Unit != metricUnits[d.Name] {
				t.Errorf("metric %s: declared unit %q, printed %q", d.Name, d.Unit, metricUnits[d.Name])
			}
			if (d.Bound != nil) != bounded || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("metric %s: bad bound", d.Name)
			}
		}
		if !slices.Equal(names, printed) {
			t.Errorf("declared metrics %q, printed %q", names, printed)
		}
	}
	check(b.EndToEnd, endToEnd, true)
	check(b.PerLayer, perLayer, false)
}
