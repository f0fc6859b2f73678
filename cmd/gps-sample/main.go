// Command gps-sample runs Graph Priority Sampling over an edge-stream file
// and prints triangle/wedge/clustering estimates with 95% confidence bounds.
// Both stream formats are accepted and auto-detected: plain-text "u v"
// lines and the binary GPSB framing written by gps-gen -format binary.
//
// Usage:
//
//	gps-sample -in graph.txt -m 100000 [-weight triangle|uniform|adjacency]
//	           [-permute] [-seed S] [-exact] [-half-life H] [-checkpoints N]
//	           [-checkpoint-out f.gpsc] [-checkpoint-at N] [-restore f.gpsc]
//
// With -half-life H the sampler runs forward-decay (time-decayed) sampling:
// estimates target decayed counts at the stream's event horizon, using the
// input's timestamps (third edge-list column or GPSB v2) or, on untimed
// inputs, arrival order. A decayed checkpoint resumes only under the same
// -half-life (the stream binding records it).
//
// With -checkpoints > 0 the in-stream estimates are printed at evenly spaced
// stream positions (real-time tracking); otherwise only the final estimates
// are printed. With -exact the exact counts are computed for comparison.
//
// Durability: -checkpoint-out writes a GPSC checkpoint of the in-stream
// estimator when the run ends (atomically; with -checkpoint-at N, after N
// processed edges, simulating a crash at that point). -restore resumes from
// such a checkpoint: rerun with the *same* input file and flags and the
// consumed prefix is skipped, so the resumed run finishes exactly like an
// uninterrupted one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gps"
	"gps/internal/checkpoint"
	"gps/internal/core"
	"gps/internal/exact"
	"gps/internal/graph"
	"gps/internal/stats"
	"gps/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "gps-sample: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, errw io.Writer) (err error) {
	// The decay overflow guard is the one panic an operator can reach with
	// flags + data alone; surface it as a normal CLI error, not a trace.
	defer func() {
		if r := recover(); r != nil {
			if oe, ok := r.(core.DecayOverflowError); ok {
				err = fmt.Errorf("%s", oe.Error())
				return
			}
			panic(r)
		}
	}()
	fs := flag.NewFlagSet("gps-sample", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		in          = fs.String("in", "", "input edge-list file (required)")
		m           = fs.Int("m", 100000, "reservoir capacity")
		weightName  = fs.String("weight", "triangle", "weight function: triangle, uniform, adjacency")
		permute     = fs.Bool("permute", false, "stream a random permutation instead of file order")
		seed        = fs.Uint64("seed", 1, "sampler (and permutation) seed")
		withExact   = fs.Bool("exact", false, "also compute exact counts for comparison")
		halfLife    = fs.Float64("half-life", 0, "forward-decay half-life in event-time units (0 disables time-decayed sampling)")
		checkpoints = fs.Int("checkpoints", 0, "print tracking estimates at N stream positions")
		ckptOut     = fs.String("checkpoint-out", "", "write a GPSC checkpoint here when the run ends")
		ckptAt      = fs.Int("checkpoint-at", 0, "stop after N processed edges and write -checkpoint-out (simulated crash)")
		restore     = fs.String("restore", "", "resume from a GPSC checkpoint written by -checkpoint-out (same input and flags)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *ckptAt > 0 && *ckptOut == "" {
		return fmt.Errorf("-checkpoint-at requires -checkpoint-out")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	edges, err := stream.ReadEdges(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(edges) == 0 {
		return fmt.Errorf("%s: no edges", *in)
	}

	// The stream binding ties a checkpoint to the deterministic pipeline
	// that produced it: edge count, ordering mode and permutation seed. A
	// resume whose rebuilt stream has a different binding would skip the
	// prefix of a differently-ordered stream and silently compute garbage.
	streamBinding := fmt.Sprintf("edges=%d;order=file", len(edges))
	if *permute {
		streamBinding = fmt.Sprintf("edges=%d;order=permuted;seed=%d", len(edges), *seed^0xfeed)
	}
	if *halfLife != 0 {
		// Decay changes every priority, so a decayed checkpoint must only
		// resume under the same half-life (undecayed bindings keep their
		// historical form).
		streamBinding += fmt.Sprintf(";half-life=%g", *halfLife)
	}

	var est *gps.InStream
	effectiveWeight := *weightName
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			return err
		}
		stored := ""
		est2, binding, err := gps.ReadInStreamCheckpoint(f, func(name string) (gps.WeightFunc, error) {
			stored = name
			return gps.ResolveWeight(name)
		})
		f.Close()
		if err != nil {
			return err
		}
		if binding != streamBinding {
			return fmt.Errorf("checkpoint was taken over stream %q but the flags rebuild stream %q; "+
				"resume needs the same input file, -permute and -seed as the original run",
				binding, streamBinding)
		}
		est = est2
		if stored != *weightName {
			fmt.Fprintf(errw, "gps-sample: restoring with weight %q from checkpoint (flag said %q)\n",
				stored, *weightName)
		}
		effectiveWeight = stored
		fmt.Fprintf(errw, "gps-sample: restored %s at stream position %d (m=%d)\n",
			*restore, est.Sampler().Processed(), est.Sampler().Capacity())
	} else {
		var weight gps.WeightFunc
		switch *weightName {
		case "triangle":
			weight = gps.TriangleWeight
		case "uniform":
			weight = gps.UniformWeight
		case "adjacency":
			weight = gps.AdjacencyWeight
		default:
			return fmt.Errorf("unknown weight %q", *weightName)
		}
		est, err = gps.NewInStream(gps.Config{
			Capacity: *m,
			Weight:   weight,
			Seed:     *seed,
			Decay:    gps.Decay{HalfLife: *halfLife},
		})
		if err != nil {
			return err
		}
	}

	var src gps.Stream = stream.Simplify(stream.FromEdges(edges))
	if *permute {
		src = stream.Simplify(stream.Permute(edges, *seed^0xfeed))
	}
	// Resume: the restored estimator already consumed a prefix of this
	// exact (deterministically rebuilt) stream; skip it, keeping the
	// simplifier's duplicate state intact. A short skip means the input is
	// not the stream the checkpoint was taken from — refuse to "finish" a
	// run that cannot line up.
	skip := est.Sampler().Processed()
	if got := stream.Skip(src, skip); got < skip {
		return fmt.Errorf("checkpoint was taken at stream position %d but the input yields only %d edges; "+
			"resume needs the same file and flags as the original run", skip, got)
	}

	every := 0
	if *checkpoints > 0 {
		every = len(edges) / *checkpoints
		if every < 1 {
			every = 1
		}
		fmt.Fprintln(stdout, "t\ttriangles\tLB\tUB\twedges\tclustering")
	}
	t := int(skip)
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		est.Process(e)
		t++
		if every > 0 && t%every == 0 {
			cur := est.Estimates()
			iv := cur.TriangleInterval()
			fmt.Fprintf(stdout, "%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.4f\n",
				t, cur.Triangles, iv.Lower, iv.Upper, cur.Wedges, cur.GlobalClustering())
		}
		if *ckptAt > 0 && t >= *ckptAt {
			// Simulated crash: persist and stop mid-stream.
			n, err := writeCheckpoint(*ckptOut, est, effectiveWeight, streamBinding)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "checkpoint: %s (%d bytes) at stream position %d\n", *ckptOut, n, t)
			return nil
		}
	}

	if *ckptOut != "" {
		n, err := writeCheckpoint(*ckptOut, est, effectiveWeight, streamBinding)
		if err != nil {
			return err
		}
		fmt.Fprintf(errw, "gps-sample: checkpoint %s (%d bytes) at stream position %d\n", *ckptOut, n, t)
	}

	final := est.Estimates()
	post := gps.EstimatePost(est.Sampler())
	fmt.Fprintf(stdout, "\nstream: %d arrivals, sampled %d edges (threshold %.4g)\n",
		final.Arrivals, final.SampledEdges, est.Sampler().Threshold())
	if final.Decayed {
		fmt.Fprintf(stdout, "decay: half-life %g, horizon %d, decayed edge count %.1f\n",
			*halfLife, final.DecayHorizon, final.DecayedEdges)
	}
	printEst(stdout, "in-stream  ", final)
	printEst(stdout, "post-stream", post)

	if *withExact {
		truth := exact.Count(graph.BuildStatic(edges))
		fmt.Fprintf(stdout, "\nexact: triangles=%d wedges=%d clustering=%.4f\n",
			truth.Triangles, truth.Wedges, truth.GlobalClustering())
		fmt.Fprintf(stdout, "in-stream ARE: triangles=%.4f wedges=%.4f clustering=%.4f\n",
			stats.ARE(final.Triangles, float64(truth.Triangles)),
			stats.ARE(final.Wedges, float64(truth.Wedges)),
			stats.ARE(final.GlobalClustering(), truth.GlobalClustering()))
	}
	return nil
}

// writeCheckpoint persists the estimator atomically (temp file + rename) so
// a crash mid-write never leaves a torn checkpoint behind.
func writeCheckpoint(path string, est *gps.InStream, weightName, streamBinding string) (int64, error) {
	return checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		return est.WriteCheckpoint(w, weightName, streamBinding)
	})
}

func printEst(w io.Writer, name string, e gps.Estimates) {
	tri := e.TriangleInterval()
	wed := e.WedgeInterval()
	cc := e.ClusteringInterval()
	fmt.Fprintf(w, "%s: triangles=%.0f [%.0f, %.0f]  wedges=%.0f [%.0f, %.0f]  clustering=%.4f [%.4f, %.4f]\n",
		name, e.Triangles, tri.Lower, tri.Upper,
		e.Wedges, wed.Lower, wed.Upper,
		e.GlobalClustering(), cc.Lower, cc.Upper)
}
