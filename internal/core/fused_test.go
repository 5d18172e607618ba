package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dctraffic/internal/obs"
	"dctraffic/internal/trace"
)

// fusedTestConfig is the shortened simulation the fused tests share.
func fusedTestConfig(seed uint64) RunConfig {
	cfg := SmallRun()
	cfg.Duration = 20 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	cfg.Seed = seed
	return cfg
}

// TestRunAnalyzeMatchesTwoPhase is the acceptance gate of the fused
// pipeline: RunAnalyze's report must be bit-identical to the two-phase
// simulate → materialize → analyze path, across seeds, GOMAXPROCS and
// the analyzer's worker count — including legs with a tiny live buffer
// that forces backpressure stalls.
func TestRunAnalyzeMatchesTwoPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("a matrix of full simulations")
	}
	for _, seed := range []uint64{1, 7} {
		cfg := fusedTestConfig(seed)
		rr, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := reportDigest(t, mustAnalyze(t, rr, WithParallelism(1)))

		prev := runtime.GOMAXPROCS(0)
		type leg struct {
			gmp     int
			tinyBuf bool
		}
		matrix := []leg{{1, true}, {1, false}, {runtime.NumCPU(), true}, {runtime.NumCPU(), false}}
		if seed != 1 {
			matrix = []leg{{runtime.NumCPU(), false}} // cross-seed spot check
		}
		for _, m := range matrix {
			runtime.GOMAXPROCS(m.gmp)
			opts := []AnalyzeOption{WithParallelism(8)}
			if m.tinyBuf {
				// A 256-record FIFO guarantees the simulator blocks on the
				// analyzer repeatedly; results must not change.
				opts = append(opts, WithLiveBuffer(256))
			}
			_, rep, err := RunAnalyze(context.Background(), cfg, opts...)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("seed %d GOMAXPROCS=%d tinyBuf=%v: %v", seed, m.gmp, m.tinyBuf, err)
			}
			if got := reportDigest(t, rep); got != want {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("seed %d GOMAXPROCS=%d tinyBuf=%v: fused digest %s != two-phase %s",
					seed, m.gmp, m.tinyBuf, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)

		// The single-worker analyzer through the fused path.
		_, rep, err := RunAnalyze(context.Background(), cfg, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := reportDigest(t, rep); got != want {
			t.Fatalf("seed %d: single-worker fused digest %s != two-phase %s", seed, got, want)
		}
	}
}

// TestRunAnalyzeCompressionSampleMidRun covers the mid-run compression
// handoff: a run long enough to log more than trace.CompressionSample
// records hands the sample to the analysis pool while it is still
// simulating. The report must carry exactly the ratio
// MeasuredCompression(0) measures on the finished run, and the fused
// digest must equal the two-phase digest.
func TestRunAnalyzeCompressionSampleMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("a 4 h simulation")
	}
	cfg := SmallRun()
	cfg.Duration = 4 * time.Hour
	rr, rep, err := RunAnalyze(context.Background(), cfg, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if n := rr.Collector.NumRecords(); n <= trace.CompressionSample {
		t.Fatalf("run logged %d records, want more than the %d-record sample", n, trace.CompressionSample)
	}
	want, err := rr.Collector.MeasuredCompression(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Overhead.CompressionRatio; got != want {
		t.Fatalf("report ratio %v, MeasuredCompression(0) %v", got, want)
	}
	if got, want := reportDigest(t, rep), reportDigest(t, mustAnalyze(t, rr, WithParallelism(1))); got != want {
		t.Fatalf("fused digest %s != two-phase %s", got, want)
	}
}

// TestRunAnalyzeReassemblyMatches covers the stateful windowed
// reassembler across the fused seam: §3 flow-boundary merging must not
// depend on whether records arrive from a sorted slice or live from the
// simulator.
func TestRunAnalyzeReassemblyMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulations")
	}
	cfg := fusedTestConfig(1)
	rr, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportDigest(t, mustAnalyze(t, rr, WithInactivityTimeout(60*time.Second)))
	_, rep, err := RunAnalyze(context.Background(), cfg, WithInactivityTimeout(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := reportDigest(t, rep); got != want {
		t.Fatalf("fused reassembly digest %s != two-phase %s", got, want)
	}
}

// TestRunAnalyzeObservability checks the seam's metrics: the run
// registry must carry the trace.live.* gauges and the backpressure
// counter, with values consistent with a stream that actually flowed.
func TestRunAnalyzeObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	cfg := fusedTestConfig(1)
	reg := obs.NewRegistry()
	rr, _, err := RunAnalyze(context.Background(), cfg,
		WithRunOptions(WithObserver(reg)), WithLiveBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	snap := rr.Metrics
	if snap == nil {
		t.Fatal("no metrics snapshot")
	}
	if err := snap.Require("trace.live.", "pipeline."); err != nil {
		t.Fatal(err)
	}
	released := snap.Value("trace.live.released_total")
	if want := float64(len(rr.Records())); released != want {
		t.Fatalf("released_total %v, want %v (every record must pass through the seam)", released, want)
	}
	if peak := snap.Value("trace.live.buffered_peak"); peak <= 0 {
		t.Fatalf("buffered_peak %v, want > 0", peak)
	}
	if waits := snap.Value("pipeline.backpressure_waits"); waits <= 0 {
		t.Fatalf("backpressure_waits %v, want > 0 with a 64-record FIFO", waits)
	}
}

// TestRunAnalyzeCancellation cancels mid-stream and asserts the fused
// pipeline unwinds: RunAnalyze reports the cancellation (it joins the
// simulator goroutine before returning, so a hang here is a deadlock in
// the seam's error propagation).
func TestRunAnalyzeCancellation(t *testing.T) {
	cfg := fusedTestConfig(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := RunAnalyze(ctx, cfg,
			WithRunOptions(WithProgress(func(p Progress) {
				if p.SimTime >= 5*time.Minute {
					once.Do(cancel)
				}
			}), WithProgressInterval(time.Minute)))
		if err == nil {
			t.Error("canceled fused run: want error")
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled fused run: got %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("fused pipeline did not unwind after cancellation")
	}
}
