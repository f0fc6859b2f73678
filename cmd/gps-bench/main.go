// Command gps-bench regenerates the paper's evaluation tables and figures
// from the synthetic stand-in datasets at configurable scale.
//
// Usage:
//
//	gps-bench -exp table1|table2|table3|fig1|fig2|fig3|weights|extensions|accuracy|decay|window|chaos|all \
//	          [-profile small|full] [-trials N] [-sample M] [-budget B] [-json] \
//	          [-checkpoints C] [-seed S] [-graphs a,b,c] [-edges N] [-shards P]
//	gps-bench -lint FILE|-                 # validate a Prometheus text exposition
//
// Examples:
//
//	gps-bench -exp table1                  # Table 1 at the default scale
//	gps-bench -exp table2 -budget 20000    # baselines at a 20K edge budget
//	gps-bench -exp fig2 -profile full      # convergence sweep, 8× datasets
//	gps-bench -exp decay -trials 2 -shards 2
//	                                       # forward-decayed estimates vs exact
//	gps-bench -exp chaos -edges 200000 -shards 2
//	                                       # fault-injected serve run vs fault-free baseline
//	curl -s localhost:6060/metrics | gps-bench -lint -
//	                                       # lint a live scrape with the in-repo checker
//
// -json switches the decay and window experiments to machine-readable
// output (one JSON document on stdout). Performance is measured by the
// repo benchmark (perfbench/run.sh) and the Go benchmarks, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gps/internal/datasets"
	"gps/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "gps-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, errw io.Writer) error {
	fs := flag.NewFlagSet("gps-bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		exp         = fs.String("exp", "all", "experiment: table1, table2, table3, fig1, fig2, fig3, weights, extensions, accuracy, decay, window, chaos, all")
		jsonOut     = fs.Bool("json", false, "machine-readable JSON output (decay and window experiments)")
		profileName = fs.String("profile", "small", "dataset scale: small or full")
		trials      = fs.Int("trials", 3, "replications per configuration")
		sample      = fs.Int("sample", 20000, "GPS sample size m (table1, fig1, fig3, weights)")
		budget      = fs.Int("budget", 10000, "edge budget for the baseline comparisons (table2, table3, extensions)")
		checkpoints = fs.Int("checkpoints", 20, "checkpoints along the stream (table3, fig3)")
		seed        = fs.Uint64("seed", 0x69505321, "root seed for all randomness")
		edges       = fs.Int("edges", 1_000_000, "synthetic stream length for -exp chaos")
		shardsFlag  = fs.Int("shards", 4, "shard count for the parallel sampler (decay, window, chaos)")
		graphsFlag  = fs.String("graphs", "", "comma-separated dataset names (default: the paper's list per experiment)")
		list        = fs.Bool("list", false, "list available datasets and exit")
		lintFile    = fs.String("lint", "", "validate a Prometheus text exposition file and exit (\"-\" reads stdin)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *lintFile != "" {
		return lintExposition(*lintFile, stdout)
	}

	if *list {
		for _, name := range datasets.Names() {
			d, _ := datasets.Get(name)
			fmt.Fprintf(stdout, "%-22s %-14s %s\n", d.Name, d.Kind, d.Notes)
		}
		return nil
	}

	profile := datasets.Small
	switch *profileName {
	case "small":
	case "full":
		profile = datasets.Full
	default:
		return fmt.Errorf("unknown profile %q (want small or full)", *profileName)
	}
	opts := experiments.Options{Profile: profile, Trials: *trials, Seed: *seed}

	var graphs []string
	if *graphsFlag != "" {
		graphs = strings.Split(*graphsFlag, ",")
	}

	emit := func(title, body string) {
		fmt.Fprintf(stdout, "===== %s =====\n%s\n", title, body)
	}
	emitJSON := func(v any) error {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	runOne := func(name string) error {
		if *jsonOut && name != "decay" && name != "window" {
			return fmt.Errorf("-json is supported for -exp decay and window, not %q", name)
		}
		switch name {
		case "table1":
			rows, err := experiments.Table1(opts, *sample, graphs)
			if err != nil {
				return err
			}
			emit("Table 1 — GPS in-stream vs post-stream estimation", experiments.RenderTable1(rows))
		case "table2":
			rows, err := experiments.Table2(opts, *budget, graphs)
			if err != nil {
				return err
			}
			emit("Table 2 — baseline comparison at equal edge budget", experiments.RenderTable2(rows))
		case "table3":
			rows, err := experiments.Table3(opts, *budget, *checkpoints, graphs)
			if err != nil {
				return err
			}
			emit("Table 3 — triangle tracking error vs time", experiments.RenderTable3(rows))
		case "fig1":
			pts, err := experiments.Figure1(opts, *sample, graphs)
			if err != nil {
				return err
			}
			emit("Figure 1 — x̂/x for triangles and wedges (in-stream)", experiments.RenderFigure1(pts))
		case "fig2":
			series, err := experiments.Figure2(opts, nil, graphs)
			if err != nil {
				return err
			}
			emit("Figure 2 — convergence with confidence bounds",
				experiments.RenderFigure2(series)+"\n"+experiments.PlotFigure2(series))
		case "fig3":
			series, err := experiments.Figure3(opts, *sample, *checkpoints, graphs)
			if err != nil {
				return err
			}
			emit("Figure 3 — real-time tracking",
				experiments.RenderFigure3(series)+"\n"+experiments.PlotFigure3(series))
		case "weights":
			graphName := "socfb-Penn94"
			if len(graphs) > 0 {
				graphName = graphs[0]
			}
			rows, err := experiments.WeightAblation(opts, *sample, graphName)
			if err != nil {
				return err
			}
			emit("§3.5 ablation — weight functions ("+graphName+")", experiments.RenderAblation(rows))
		case "chaos":
			body, err := chaosBench(*edges, *sample, *shardsFlag, *seed)
			if err != nil {
				return err
			}
			emit("Chaos — fault-injected run vs fault-free baseline (equivalence drill)", body)
		case "extensions":
			rows, err := experiments.Extensions(opts, *budget, graphs)
			if err != nil {
				return err
			}
			emit("Extensions — JHA and Buriol vs GPS (comparisons the paper omitted)", experiments.RenderExtensions(rows))
		case "accuracy":
			rows, err := experiments.Accuracy(opts, nil, graphs)
			if err != nil {
				return err
			}
			emit("Accuracy — motif estimator NRMSE vs exact counts across m", experiments.RenderAccuracy(rows))
		case "decay":
			rows, err := experiments.DecayAccuracy(opts, experiments.DecayConfig{Shards: *shardsFlag})
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(map[string]any{"schema": "gps-bench/decay/v1", "rows": rows})
			}
			emit("Decay — forward-decayed estimates vs exact decayed counts", experiments.RenderDecay(rows))
		case "window":
			rows, err := experiments.WindowAccuracy(opts, experiments.WindowConfig{Shards: *shardsFlag})
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(map[string]any{"schema": "gps-bench/window/v1", "rows": rows})
			}
			emit("Window — turnstile sliding-window estimates vs exact in-window counts", experiments.RenderWindow(rows))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *exp == "all" {
		if *jsonOut {
			return fmt.Errorf("-json is supported for -exp decay and window, not \"all\"")
		}
		for _, name := range []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "weights", "extensions"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}
