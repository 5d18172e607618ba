package core

import (
	"context"
	"errors"

	"dctraffic/internal/trace"
)

// WithRunOptions forwards simulator options (WithProgress,
// WithObserver, WithMetricsSink, ...) to the run RunAnalyze launches.
// It is meaningful only to RunAnalyze; plain AnalyzeSource/AnalyzeRun
// ignore it.
func WithRunOptions(opts ...RunOption) AnalyzeOption {
	return func(c *analyzeConfig) { c.runOpts = append(c.runOpts, opts...) }
}

// WithLiveBuffer bounds RunAnalyze's released-record FIFO: once the
// analyzer lags the simulator by n canonical-order records, the
// simulator blocks (backpressure) until the analyzer catches up. <= 0
// selects the default (1<<15 records). Results are identical at any
// bound; the knob trades decoupling slack for memory.
func WithLiveBuffer(n int) AnalyzeOption {
	return func(c *analyzeConfig) { c.liveCap = n }
}

// withLiveSource marks the analysis as the consumer half of a fused
// pipeline (internal; set by RunAnalyze).
func withLiveSource(ls *trace.LiveSource) AnalyzeOption {
	return func(c *analyzeConfig) { c.live = ls }
}

// RunAnalyze fuses the simulate and analyze phases: it builds the
// cluster, runs the event loop on its own goroutine, and streams the
// completed-flow records through a trace.LiveSource into AnalyzeSource
// on the calling goroutine — the record-derived figures (2, 3/4, 9, 10,
// 11, the incast record pass) compute while the simulation is still
// producing, and only the run-derived work (congestion episodes,
// Figures 5–8, attribution, tomography, overhead) waits for the drain.
// End-to-end wall clock approaches max(simulate, analyze) instead of
// their sum, and the report is bit-identical to Run followed by
// AnalyzeRun at any analysis worker count (enforced by
// TestRunAnalyzeMatchesTwoPhase).
//
// Options: analysis options apply as in AnalyzeSource; WithRunOptions
// forwards simulator options; WithLiveBuffer bounds the seam's FIFO.
// Cancellation and errors propagate across the seam in both directions:
// a simulator failure surfaces from the analyzer ahead of any buffered
// records, an analyzer failure cancels the simulator, and RunAnalyze
// joins the simulator goroutine before returning either way.
func RunAnalyze(ctx context.Context, cfg RunConfig, opts ...AnalyzeOption) (*RunResult, *Report, error) {
	// Pre-scan the options for the run-side knobs (the scan writes the
	// analyze knobs into a throwaway config; AnalyzeSource re-applies
	// everything itself).
	var probe analyzeConfig
	for _, o := range opts {
		o(&probe)
	}

	live := trace.NewLiveSource(probe.liveCap)
	p, err := prepareRun(cfg, probe.runOpts...)
	if err != nil {
		return nil, nil, err
	}
	p.recordSink = live
	p.rr.Collector.SetSink(live.Emit)
	live.Instrument(p.o.reg)

	// Backstop: whatever path exits this function, no producer can stay
	// blocked in Advance afterwards. No-op when the stream completed.
	defer live.Close(nil)

	simCtx, cancelSim := context.WithCancel(ctx)
	defer cancelSim()
	simDone := make(chan error, 1)
	go func() {
		_, err := p.execute(simCtx)
		// CloseSend publishes the outcome to the consumer: a clean EOF
		// after the remaining records, or the error ahead of them.
		live.CloseSend(err)
		simDone <- err
	}()

	analyzeOpts := append([]AnalyzeOption{WithRun(p.rr)}, opts...)
	analyzeOpts = append(analyzeOpts, withLiveSource(live))
	rep, aerr := AnalyzeSource(ctx, live, analyzeOpts...)
	if aerr != nil {
		// Unblock and stop the producer, then join it.
		live.Close(aerr)
		cancelSim()
	}
	serr := <-simDone

	switch {
	case aerr == nil && serr == nil:
		return p.rr, rep, nil
	case aerr != nil && serr != nil && errors.Is(serr, context.Canceled) && ctx.Err() == nil:
		// The simulator stopped only because the analyzer failed first
		// and we canceled it: the analyzer's error is the cause.
		return nil, nil, aerr
	case serr != nil:
		return nil, nil, serr
	default:
		return nil, nil, aerr
	}
}
