// Command perfbench is the repository benchmark. One invocation runs one
// workload against the gps code the way users run it, checks that the
// outputs are correct, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload replay|ingest|live --seed N --seconds S --trace 0|1
//
// Workloads:
//
//   - replay: the paper's one-pass experiment as a library user or
//     gps-sample runs it. A child process decodes a GPSB-encoded R-MAT
//     stream, feeds it through core.InStream with the triangle weight and
//     runs core.EstimatePost at evenly spaced positions. core alone does the
//     work, so it shows core changes and stays flat for every other one.
//   - ingest: the service write path at its limit. gps-serve, restored from
//     a checkpoint, takes pre-encoded uniform-weight GPSB batches back to
//     back on one connection until /v1/flush returns, then answers one
//     forced-fresh estimate. HTTP, decode, the tenant queue, grouping, ring
//     publish and shard drain do the work.
//   - live: reads beside a steady write load. gps-serve hosts a
//     triangle-weighted default stream and a windowed turnstile stream;
//     one connection ingests into both on a fixed schedule while the other
//     sends forced-fresh and window estimates on a fixed schedule.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, with the stage ledger
// and the tracing overhead. Every workload reports the same metrics. Lines
// before the result give the host fingerprint and the run's diagnostics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	serveBin string // gps-serve binary (ingest, live)
	workDir  string // generated inputs and checkpoints, removed at exit
	spans    string // where a traced run writes its spans; kept
	procs    int    // GOMAXPROCS and shard count of every process, = nproc
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	diag      map[string]any
	// gateErrs lists correctness gates that failed; any entry makes the
	// run incorrect.
	gateErrs []string
	// invalid is set when the run did not measure what it claims (an open
	// loop that fell behind its schedule); such a run reports no metrics.
	invalid string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, diag: map[string]any{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const replayChildArg = "replay-child"

// A run whose CPUs lost more than maxStealShare of their time to other
// guests of the host is measured again, up to maxAttempts runs in all.
const (
	maxStealShare = 0.10
	maxAttempts   = 2
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == replayChildArg {
		os.Exit(replayChild(os.Args[2:], os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: replay, ingest or live")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase the workload is sized for")
	traceLevel := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.serveBin, "serve", "", "gps-serve binary")
	fs.StringVar(&o.workDir, "work", "", "directory for inputs, checkpoints and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want replay, ingest or live)\n", o.workload)
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traceLevel != 0 && *traceLevel != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case o.workDir == "":
		fmt.Fprintln(stderr, "perfbench: -work is required (run through perfbench/run.sh)")
		return 2
	case o.workload != "replay" && o.serveBin == "":
		fmt.Fprintln(stderr, "perfbench: -serve is required (run through perfbench/run.sh)")
		return 2
	}
	o.trace = *traceLevel == 1
	o.spans = filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	o.workDir = filepath.Join(o.workDir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.workDir)

	// Children are killed and reaped on every exit path, signals included.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAllChildren()
		os.RemoveAll(o.workDir)
		os.Exit(130)
	}()
	defer stopAllChildren()

	host := fingerprint()
	o.procs = host.Nproc
	runtime.GOMAXPROCS(o.procs)
	var out *outcome
	var start time.Time
	for {
		host.Attempts++
		steal0 := stealSeconds()
		start = time.Now()
		var err error
		out, err = runWorkload(&o)
		host.StealSeconds = stealSeconds() - steal0
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		// A shared host sometimes lends this machine's CPUs out for a
		// minute; a run that lost a large share of its CPU time to that
		// measures the neighbours, so it is measured once more.
		share := host.StealSeconds / (time.Since(start).Seconds() * float64(o.procs))
		if share <= maxStealShare || host.Attempts == maxAttempts {
			break
		}
		fmt.Fprintf(stderr, "perfbench: %s: %.0f%% of the CPU time was stolen during the run; measuring again\n",
			o.workload, 100*share)
		os.RemoveAll(o.workDir) // the next attempt prepares its inputs afresh
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		time.Sleep(5 * time.Second)
	}
	if o.trace {
		out.diag["spans"] = o.spans
	}
	out.diag["wall_s"] = time.Since(start).Seconds()
	return report(&o, host, out, stdout, stderr)
}

// report prints the host, diagnostics and result lines, and returns the
// exit code: 0 for a correct, valid run.
func report(o *options, host hostInfo, out *outcome, stdout, stderr io.Writer) int {
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	// What the run measured beyond the result line's metrics goes to the
	// diagnostics line.
	other := map[string]float64{}
	for name, v := range out.metrics {
		if !slices.Contains(names, name) {
			other[name] = v
		}
	}
	if len(other) > 0 {
		out.diag["other_metrics"] = other
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{"host": host})
	if len(out.gateErrs) > 0 {
		out.diag["gate_failures"] = out.gateErrs
	}
	if out.invalid != "" {
		out.diag["invalid"] = out.invalid
	}
	enc.Encode(map[string]any{"diagnostics": out.diag})
	if out.invalid != "" {
		fmt.Fprintf(stderr, "perfbench: %s: invalid run, no metrics reported: %s\n", o.workload, out.invalid)
		return 3
	}
	res := result{
		Correct:   len(out.gateErrs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(names)),
	}
	for _, name := range names {
		v, ok := out.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured (%v)\n", o.workload, name, v)
			return 1
		}
		res.Metrics[name] = metricValue{Value: v, Unit: metricUnits[name]}
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, e := range out.gateErrs {
			fmt.Fprintf(stderr, "perfbench: %s: gate failed: %s\n", o.workload, e)
		}
		return 1
	}
	return 0
}

var workloads = map[string]func(*options) (*outcome, error){
	"replay": runReplay,
	"ingest": runIngest,
	"live":   runLive,
}

// The result line has the same metrics for every workload: endToEnd in an
// untraced run, perLayer in a traced one. Where the workloads time
// different calls under one name:
//
//   - edges_per_s: replay, edges over the time inside InStream.Process;
//     ingest, edges over first POST to flush response; live, the records
//     of both streams over first scheduled send to flush response, which
//     reads the offered rate unless the server falls behind.
//   - query_ms: the typical query, as the median of per-unit figures.
//     replay, EstimatePost on the live sampler, its mean over the evenly
//     spaced calls of a pass (the cost grows along the stream, so the
//     median call would sit on that slope), median over passes; ingest,
//     the forced-fresh estimate after each round's flush, median over
//     rounds; live, the mean of the forced-fresh and the window estimates'
//     medians, each query timed from its scheduled send.
//
// Per-layer times are only those every workload measures. serve and engine
// are absent from replay, so their metrics here are counts and ratios,
// which read 0 there; every other number a traced run computes, the serve
// and engine times included, is printed in its diagnostics line.
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "cpu_s", "edges_per_s", "query_ms"}
	perLayer = []string{
		"query_p95_ms",
		"stream.decode_ns_per_edge", "stream.wire_bytes_per_edge",
		"serve.ingest_posts", "serve.ingest_refused_ratio", "serve.queue_batches_p50",
		"engine.drain_batch_edges_mean", "engine.ring_stalls", "engine.ring_parks",
		"engine.snapshot_clone_ratio", "engine.window_panes_per_query",
		"core.process_ns_per_edge", "core.estimate_post_ms_p50", "core.accept_ratio",
		"checkpoint.restore_ms", "checkpoint.bytes",
		"ledger.e2e_ms_per_op", "ledger.stage_sum_ms_per_op", "ledger.residual_ms_per_op",
		"ledger.trace_overhead_ratio",
	}
)

// metricUnits holds the unit of every metric in BENCHMARK.json.
var metricUnits = map[string]string{
	// End to end.
	"setup_s":     "s",
	"peak_rss_mb": "MiB",
	"cpu_s":       "s",
	"edges_per_s": "edges/s",
	"query_ms":    "ms",

	// Per layer. query_p95_ms is the 95th percentile of the single queries
	// behind query_ms (for live, the mean of both kinds').
	"query_p95_ms": "ms",
	// stream
	"stream.decode_ns_per_edge":  "ns/edge",
	"stream.wire_bytes_per_edge": "bytes/edge",
	// serve
	"serve.ingest_posts":         "count",
	"serve.ingest_refused_ratio": "ratio",
	"serve.queue_batches_p50":    "batches",
	// engine
	"engine.drain_batch_edges_mean": "edges",
	"engine.ring_stalls":            "count",
	"engine.ring_parks":             "count",
	"engine.snapshot_clone_ratio":   "ratio",
	"engine.window_panes_per_query": "panes",
	// core
	"core.process_ns_per_edge":  "ns/edge",
	"core.estimate_post_ms_p50": "ms",
	"core.accept_ratio":         "ratio",
	// checkpoint
	"checkpoint.restore_ms": "ms",
	"checkpoint.bytes":      "bytes",
	// The stage ledger per unit of work (a replay pass, an ingest round, a
	// live query): the untraced end-to-end time, the sum of the traced
	// stage self times, their difference, and the tracing overhead.
	"ledger.e2e_ms_per_op":        "ms",
	"ledger.stage_sum_ms_per_op":  "ms",
	"ledger.residual_ms_per_op":   "ms",
	"ledger.trace_overhead_ratio": "ratio",
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs, averaging the two middle values of an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
