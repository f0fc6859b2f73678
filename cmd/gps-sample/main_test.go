package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gps/internal/gen"
	"gps/internal/stream"
)

func writeGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := stream.WriteEdgeList(f, gen.HolmeKim(500, 4, 0.6, 3)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBasic(t *testing.T) {
	path := writeGraph(t)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-m", "400", "-exact"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"in-stream", "post-stream", "exact:", "ARE"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunBinaryInput feeds gps-sample a GPSB binary stream; the format is
// auto-detected and the run must match the text-format run exactly.
func TestRunBinaryInput(t *testing.T) {
	edges := gen.HolmeKim(500, 4, 0.6, 3)
	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	binPath := filepath.Join(dir, "g.gpsb")
	ft, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteEdgeList(ft, edges); err != nil {
		t.Fatal(err)
	}
	ft.Close()
	fb, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteBinary(fb, edges); err != nil {
		t.Fatal(err)
	}
	fb.Close()

	var outText, outBin, errw bytes.Buffer
	if err := run([]string{"-in", textPath, "-m", "400", "-exact"}, &outText, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", binPath, "-m", "400", "-exact"}, &outBin, &errw); err != nil {
		t.Fatal(err)
	}
	if outText.String() != outBin.String() {
		t.Fatalf("binary-input run diverges from text-input run:\n%s\nvs\n%s", outBin.String(), outText.String())
	}
}

func TestRunCheckpointsAndWeights(t *testing.T) {
	path := writeGraph(t)
	for _, w := range []string{"triangle", "uniform", "adjacency"} {
		var out, errw bytes.Buffer
		err := run([]string{"-in", path, "-m", "300", "-weight", w, "-permute", "-checkpoints", "4"}, &out, &errw)
		if err != nil {
			t.Fatalf("weight %s: %v", w, err)
		}
		if lines := strings.Count(out.String(), "\n"); lines < 6 {
			t.Fatalf("weight %s: too little output (%d lines)", w, lines)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeGraph(t)
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                               // missing -in
		{"-in", "/nonexistent/file"},     // unreadable
		{"-in", path, "-weight", "nope"}, // unknown weight
		{"-in", path, "-m", "0"},         // invalid capacity
		{"-in", empty},                   // empty graph
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

// TestRunCheckpointResume simulates a crash: one run stops mid-stream and
// writes a checkpoint, a second run restores it and finishes. The resumed
// run's complete output must equal an uninterrupted run's byte for byte —
// the CLI face of the bit-identical restore guarantee.
func TestRunCheckpointResume(t *testing.T) {
	path := writeGraph(t)
	ckpt := filepath.Join(t.TempDir(), "mid.gpsc")
	base := []string{"-in", path, "-m", "300", "-weight", "triangle", "-seed", "9", "-permute"}

	var full, crash, resumed, errw bytes.Buffer
	if err := run(base, &full, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...),
		"-checkpoint-at", "1000", "-checkpoint-out", ckpt), &crash, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(crash.String(), "checkpoint:") {
		t.Fatalf("crash run did not report its checkpoint:\n%s", crash.String())
	}
	if err := run(append(append([]string{}, base...), "-restore", ckpt), &resumed, &errw); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- resumed\n%s--- full\n%s",
			resumed.String(), full.String())
	}
}

// TestRunCheckpointFlagValidation pins the CLI-level checkpoint errors.
func TestRunCheckpointFlagValidation(t *testing.T) {
	path := writeGraph(t)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-checkpoint-at", "10"}, &out, &errw); err == nil {
		t.Fatal("-checkpoint-at without -checkpoint-out accepted")
	}
	ck := filepath.Join(t.TempDir(), "x.gpsc")
	if err := run([]string{"-in", path, "-weight", "adaptive", "-checkpoint-out", ck}, &out, &errw); err == nil ||
		!strings.Contains(err.Error(), `unknown weight "adaptive"`) {
		t.Fatalf("-weight adaptive: err = %v, want the unknown-weight error", err)
	}
	if err := run([]string{"-in", path, "-restore", filepath.Join(t.TempDir(), "missing")}, &out, &errw); err == nil {
		t.Fatal("restore from missing file accepted")
	}
}

// TestRunRestoreRejectsMismatchedInput guards against silently "finishing"
// a resume against the wrong stream: if the input cannot supply the
// checkpointed prefix, the run must fail instead of printing estimates.
func TestRunRestoreRejectsMismatchedInput(t *testing.T) {
	path := writeGraph(t)
	ckpt := filepath.Join(t.TempDir(), "mid.gpsc")
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-m", "300", "-seed", "9",
		"-checkpoint-at", "1000", "-checkpoint-out", ckpt}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	// A much shorter input cannot contain the 1000-edge prefix.
	short := filepath.Join(t.TempDir(), "short.txt")
	f, err := os.Create(short)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteEdgeList(f, gen.HolmeKim(100, 3, 0.5, 8)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = run([]string{"-in", short, "-m", "300", "-seed", "9", "-restore", ckpt}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "resume needs the same") {
		t.Fatalf("mismatched resume not rejected: %v", err)
	}
	// Same file, but a different stream order (forgotten -permute or a
	// different seed) must be caught by the recorded stream binding.
	ckptPerm := filepath.Join(t.TempDir(), "perm.gpsc")
	if err := run([]string{"-in", path, "-m", "300", "-seed", "9", "-permute",
		"-checkpoint-at", "1000", "-checkpoint-out", ckptPerm}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-in", path, "-m", "300", "-seed", "9", "-restore", ckptPerm}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "resume needs the same") {
		t.Fatalf("forgotten -permute not rejected: %v", err)
	}
	err = run([]string{"-in", path, "-m", "300", "-seed", "10", "-permute", "-restore", ckptPerm}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "resume needs the same") {
		t.Fatalf("different permutation seed not rejected: %v", err)
	}
}
