package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dctraffic/internal/trace"
)

// writeTraceFile spills rr's flow log to a JSONL file in completion
// order — the same nearly-sorted shape cmd/dcsim produces.
func writeTraceFile(t *testing.T, rr *RunResult) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, rr.Records()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// streamDigest analyzes the trace file through a FileSource (spilling
// and merging when chunk is small) and digests the full report.
func streamDigest(t *testing.T, path string, chunk int, rr *RunResult, opts ...AnalyzeOption) string {
	t.Helper()
	src, err := trace.OpenFile(path, trace.FileOptions{SortChunk: chunk, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rep, err := AnalyzeSource(context.Background(), src, append([]AnalyzeOption{WithRun(rr)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return reportDigest(t, rep)
}

// TestAnalyzeStreamMatchesInMemory is the acceptance gate of the
// streaming redesign: a trace streamed from disk through the external
// sort must produce a report bit-identical to the in-memory path, for
// every combination of seed, GOMAXPROCS, worker count and sort-chunk
// size (512 forces multi-chunk spill-and-merge; 0 keeps the trace in
// one chunk).
func TestAnalyzeStreamMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("two shortened simulations + a matrix of analyses")
	}
	for _, seed := range []uint64{1, 7} {
		cfg := SmallRun()
		cfg.Duration = 20 * time.Minute
		cfg.DrainTime = 10 * time.Minute
		cfg.Seed = seed
		rr, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := writeTraceFile(t, rr)
		want := reportDigest(t, mustAnalyze(t, rr, WithParallelism(1)))

		if got := streamDigest(t, path, 512, rr, WithParallelism(1)); got != want {
			t.Fatalf("seed %d: sequential stream digest %s != in-memory %s", seed, got, want)
		}
		prev := runtime.GOMAXPROCS(0)
		for _, gmp := range []int{1, runtime.NumCPU()} {
			runtime.GOMAXPROCS(gmp)
			for _, chunk := range []int{512, 0} {
				if got := streamDigest(t, path, chunk, rr, WithParallelism(8)); got != want {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("seed %d: GOMAXPROCS=%d chunk=%d stream digest %s != in-memory %s",
						seed, gmp, chunk, got, want)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestAnalyzeStreamReassemblyMatches covers the stateful windowed
// reassembler: flow merging across the inactivity horizon must not
// depend on whether records arrive from memory or from spill-merged
// chunks.
func TestAnalyzeStreamReassemblyMatches(t *testing.T) {
	rr, _ := smallRun(t)
	path := writeTraceFile(t, rr)
	want := reportDigest(t, mustAnalyze(t, rr, WithInactivityTimeout(60*time.Second)))
	got := streamDigest(t, path, 1024, rr, WithInactivityTimeout(60*time.Second))
	if got != want {
		t.Fatalf("reassembly stream digest %s != in-memory %s", got, want)
	}
}

// TestAnalyzeTraceOnlyPathMatches pins the cmd/dcanalyze -trace mode:
// with only a topology and duration (no RunResult), the file source and
// the slice source must agree bit for bit on the record-only figures.
func TestAnalyzeTraceOnlyPathMatches(t *testing.T) {
	rr, _ := smallRun(t)
	path := writeTraceFile(t, rr)
	opts := []AnalyzeOption{WithTopology(rr.Top), WithDuration(rr.Config.Duration)}
	memRep, err := AnalyzeSource(context.Background(), rr.Source(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenFile(path, trace.FileOptions{SortChunk: 777, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fileRep, err := AnalyzeSource(context.Background(), src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportDigest(t, fileRep), reportDigest(t, memRep); got != want {
		t.Fatalf("trace-only file digest %s != slice digest %s", got, want)
	}
	if fileRep.Fig9.Summary.NumFlows == 0 {
		t.Fatal("trace-only analysis produced no flows")
	}
	if len(fileRep.Fig5.Episodes) != 0 || fileRep.Fig12.NumTMs != 0 {
		t.Fatal("trace-only analysis should leave run-gated figures empty")
	}
}

// TestAnalyzeShimEquivalence keeps the deprecated struct-options
// surface honest: Analyze must be a pure wrapper over the functional
// options it deprecates.
func TestAnalyzeShimEquivalence(t *testing.T) {
	rr, _ := smallRun(t)
	legacy := Analyze(rr, AnalyzeOptions{Parallelism: 2, TomoCold: true})
	modern := mustAnalyze(t, rr, WithParallelism(2), WithTomoCold())
	if got, want := reportDigest(t, legacy), reportDigest(t, modern); got != want {
		t.Fatalf("deprecated Analyze digest %s != AnalyzeRun digest %s", got, want)
	}
}

// TestAnalyzeSourceValidation nails the error contract of the new
// entry point: a source without a topology or duration cannot be
// analyzed, and a record no run on the topology could have produced —
// an endpoint outside it, or an end before its start — fails the
// analysis with an error naming the record's index in source order
// instead of being silently absorbed.
func TestAnalyzeSourceValidation(t *testing.T) {
	src := trace.NewSliceSource(nil)
	if _, err := AnalyzeSource(context.Background(), src); err == nil {
		t.Fatal("AnalyzeSource without topology/duration: want error")
	}
	rr, _ := smallRun(t)
	if _, err := AnalyzeSource(context.Background(), rr.Source(), WithTopology(rr.Top)); err == nil {
		t.Fatal("AnalyzeSource without duration: want error")
	}

	var recs []trace.FlowRecord
	for src := rr.Source(); ; {
		r, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	opts := []AnalyzeOption{WithTopology(rr.Top), WithDuration(rr.Config.Duration)}
	k := len(recs) / 2
	for _, tc := range []struct {
		name    string
		corrupt func(*trace.FlowRecord)
	}{
		{"src outside topology", func(r *trace.FlowRecord) { r.Src = 99999 }},
		{"dst negative", func(r *trace.FlowRecord) { r.Dst = -1 }},
		{"end before start", func(r *trace.FlowRecord) { r.End = r.Start - 1 }},
	} {
		bad := append([]trace.FlowRecord(nil), recs...)
		tc.corrupt(&bad[k])
		_, err := AnalyzeSource(context.Background(), trace.NewSliceSource(bad), opts...)
		if want := fmt.Sprintf("record %d:", k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: AnalyzeSource error %v, want one naming %q", tc.name, err, want)
		}
	}
}
