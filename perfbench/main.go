// Command perfbench is the dctraffic benchmark. It runs one named,
// seeded workload through the program's entry points for a fixed number
// of seconds, checks every report against a reference digest computed on
// the one-worker path, and prints its result as the last line of
// standard output: end-to-end metrics by default, per-layer metrics with
// --trace 1. README.md lists the workloads, the metrics and which
// end-to-end metric each layer metric should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload laptop-fused --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Seeds: the default is the one changes are tuned on; a gain claimed on
// it must also hold on the held-out seed, which is kept out of tuning.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// workDir is where the benchmark keeps its scratch files (the replay
// trace, external-sort spills) and the span files of traced runs,
// relative to the directory it runs from.
const workDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// The external sort of OpenTraceFile spills to the OS temp dir; keep
	// those files inside the run's own directory.
	if err := os.Setenv("TMPDIR", dir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, sizes: fullSizes, dir: dir}
	res, err := execute(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d-%d.json", w.name, *seed, os.Getpid()))
		if err := writeJSON(path, res.spanFile()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": res.prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res.summary()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
