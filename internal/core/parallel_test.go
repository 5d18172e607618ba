package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dctraffic/internal/obs"
)

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
		rr, err := Run(context.Background(), cfg)
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
	rr, err := Run(context.Background(), cfg)
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
