package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dctraffic/internal/obs"
)

func TestShardRangesPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1 << 17, 1<<17 + 1, 10_000_000} {
		ranges := shardRanges(n, recordShardTarget, maxRecordShards)
		if n == 0 {
			if ranges != nil {
				t.Fatalf("n=0: want nil, got %v", ranges)
			}
			continue
		}
		if len(ranges) > maxRecordShards {
			t.Fatalf("n=%d: %d shards exceeds cap", n, len(ranges))
		}
		next := 0
		for _, r := range ranges {
			if r[0] != next {
				t.Fatalf("n=%d: gap or overlap at %v (expected lo %d)", n, r, next)
			}
			next = r[1]
		}
		if next != n {
			t.Fatalf("n=%d: shards cover [0,%d)", n, next)
		}
	}
	// The decomposition is a function of the input size only — the
	// determinism contract's rule 1.
	a := shardRanges(1_000_000, recordShardTarget, maxRecordShards)
	b := shardRanges(1_000_000, recordShardTarget, maxRecordShards)
	if len(a) != len(b) {
		t.Fatal("same input, different shard count")
	}
}

func TestRunTasksExecutesAll(t *testing.T) {
	for _, workers := range []int{1, 4, 64} {
		done := make([]int32, 100)
		tasks := make([]task, len(done))
		for i := range tasks {
			i := i
			tasks[i] = task{fmt.Sprintf("t%d", i), func() { atomic.AddInt32(&done[i], 1) }}
		}
		if err := runTasks(context.Background(), workers, tasks); err != nil {
			t.Fatal(err)
		}
		for i, v := range done {
			if v != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, v)
			}
		}
	}
}

func TestRunTasksPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, p)
				}
			}()
			_ = runTasks(context.Background(), workers, []task{
				{"ok", func() {}},
				{"bad", func() { panic("boom") }},
			})
			t.Fatalf("workers=%d: no panic", workers)
		}()
	}
}

func TestRunTasksCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := runTasks(ctx, 1, []task{{"t", func() { ran = true }}})
	if err == nil {
		t.Fatal("canceled context: want error")
	}
	if ran {
		t.Fatal("task ran after cancellation")
	}
}

// reportDigest hashes the headline JSON plus the full rendered Report —
// every figure slice and map (fmt prints maps key-sorted, so the
// rendering is deterministic). The one nested pointer, Fig2.TM, is
// hashed entry by entry and nil'd out of the fmt pass so no addresses
// leak into the digest.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	d, err := ReportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAnalyzeParallelDigestIdentity is the acceptance gate of the
// deterministic-parallelism contract: the single-worker pipeline and
// the parallel pipeline must produce byte-identical reports, at
// GOMAXPROCS=1 and at NumCPU, across seeds.
func TestAnalyzeParallelDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("two shortened simulations + six analyses")
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
		seq := reportDigest(t, mustAnalyze(t, rr, WithParallelism(1)))
		prev := runtime.GOMAXPROCS(1)
		par1 := reportDigest(t, mustAnalyze(t, rr, WithParallelism(8)))
		runtime.GOMAXPROCS(runtime.NumCPU())
		parN := reportDigest(t, mustAnalyze(t, rr, WithParallelism(8)))
		runtime.GOMAXPROCS(prev)
		if seq != par1 {
			t.Fatalf("seed %d: sequential %s != parallel@GOMAXPROCS=1 %s", seed, seq, par1)
		}
		if seq != parN {
			t.Fatalf("seed %d: sequential %s != parallel@GOMAXPROCS=NumCPU %s", seed, seq, parN)
		}
	}
}

// TestAnalyzeParallelRace drives the pipeline at maximum parallelism on
// a small run — the race-detector leg (see the Makefile) that proves the
// task slots really are disjoint.
func TestAnalyzeParallelRace(t *testing.T) {
	cfg := SmallRun()
	cfg.Duration = 10 * time.Minute
	cfg.DrainTime = 5 * time.Minute
	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeRun(context.Background(), rr, WithParallelism(2*runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fig2.TM == nil || len(rep.Fig10.Magnitude) == 0 || rep.Fig9.Summary.NumFlows == 0 {
		t.Fatal("parallel analysis produced an empty report")
	}
}

func TestAnalyzeContextCanceled(t *testing.T) {
	rr, _ := smallRun(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeRun(ctx, rr); err == nil {
		t.Fatal("canceled context: want error")
	}
}

// The pipeline's observability: per-stage phases and counters land in
// the caller's registry, and attaching one does not change results.
// TestAnalyzeDefaultWorkersClamp pins the default-workers heuristic
// (DefaultParallelism, shared by the analysis pipeline and the fleet):
// at GOMAXPROCS=1 it resolves to one worker (no pool goroutines, no
// channel handoffs) and the report stays bit-identical to the explicit
// single-worker path.
func TestAnalyzeDefaultWorkersClamp(t *testing.T) {
	rr, _ := smallRun(t)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	if got := DefaultParallelism(); got != 1 {
		t.Fatalf("DefaultParallelism at GOMAXPROCS=1 = %d, want 1", got)
	}
	reg := obs.NewRegistry()
	rep, err := AnalyzeRun(context.Background(), rr, WithAnalysisObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Snapshot().Value("analyze.workers"); v != 1 {
		t.Fatalf("analyze.workers = %v, want 1 (single-proc clamp)", v)
	}
	seqRep, err := AnalyzeRun(context.Background(), rr, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportDigest(t, rep), reportDigest(t, seqRep); got != want {
		t.Fatal("default at GOMAXPROCS=1 diverged from single-worker")
	}
}

func TestAnalyzeObserverPhases(t *testing.T) {
	rr, rep := smallRun(t)
	reg := obs.NewRegistry()
	obsRep, err := AnalyzeRun(context.Background(), rr, WithAnalysisObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportDigest(t, obsRep), reportDigest(t, rep); got != want {
		t.Fatal("attaching an observer changed the report")
	}
	snap := reg.Snapshot()
	phases := map[string]bool{}
	for _, p := range snap.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"analyze.index", "analyze.figures", "analyze.congestion"} {
		if !phases[want] {
			t.Fatalf("missing phase %q in %+v", want, snap.Phases)
		}
	}
	var recordsTotal, tasksTotal float64
	for _, s := range snap.Series {
		switch s.Name {
		case "analyze.records_total":
			recordsTotal = s.Value
		case "analyze.tasks_total":
			tasksTotal = s.Value
		}
	}
	if recordsTotal <= 0 || tasksTotal <= 0 {
		t.Fatalf("pipeline counters missing: records=%v tasks=%v", recordsTotal, tasksTotal)
	}
}
