package core

import (
	"context"
	"time"

	"dctraffic/internal/congestion"
	"dctraffic/internal/flows"
	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/trace"
)

// AnalyzeOptions tunes the per-figure analyses. ApplyDefaults fills zero
// fields. It remains the underlying knob set of the streaming pipeline
// (AnalyzeSource's config embeds it), but callers should prefer the
// equivalent WithX functional options.
//
// Deprecated: configure AnalyzeRun/AnalyzeSource with AnalyzeOption
// values instead of passing this struct to Analyze/AnalyzeContext.
type AnalyzeOptions struct {
	// Parallelism bounds the worker goroutines of the analysis pipeline.
	// 0 means DefaultParallelism(); 1 runs the same sharded algorithm
	// on a single goroutine. Any value yields bit-identical results (see
	// parallel.go's determinism contract): workers only decide how many
	// of the fixed task graph's tasks run at once.
	Parallelism int

	// Observer, when non-nil, receives per-stage wall-clock phases
	// ("analyze.index", "analyze.figures", "analyze.congestion") and
	// pipeline counters. Like the simulator's registry it must not be
	// read concurrently; the pipeline touches it only from the
	// coordinating goroutine.
	Observer *obs.Registry

	// Fig2Window is the short window whose server TM shows the patterns
	// (paper: 10 s).
	Fig2Window netsim.Time
	// Fig2At is the window start (default: mid-run).
	Fig2At netsim.Time

	// CongestionThreshold is C (default 0.7).
	CongestionThreshold float64

	// Fig8Period groups read attempts (paper: one day). For runs
	// shorter than two periods it is shrunk to duration/8.
	Fig8Period netsim.Time

	// Fig10Bin is the fine TM timescale (paper: 10 s) whose lag-1 and
	// lag-10 changes give the τ=10 s and τ=100 s curves.
	Fig10Bin netsim.Time

	// InactivityTimeout, when positive, applies the §3 flow-boundary
	// methodology before the flow-level analyses (Figures 9 and 11):
	// records sharing a five-tuple quiet for less than the timeout merge
	// into one flow. The simulator has exact flow boundaries, so this is
	// off by default; turn it on to study the methodology's effect.
	InactivityTimeout netsim.Time

	// TomoBin is the tomography TM timescale (paper: 10 min averages).
	TomoBin netsim.Time
	// TomoMaxTMs caps the number of tomography instances analyzed.
	TomoMaxTMs int
	// JobPriorAlpha scales the §5.3 multiplier.
	JobPriorAlpha float64
	// TomoCold disables warm-starting the sparsity-max simplex across
	// consecutive tomography windows. Warm starts (the default) return a
	// different — equally valid — basic feasible solution for some
	// windows, which shifts the sparsity-max figure series; TomoCold
	// reproduces the pre-warm-start digests exactly. Tomogravity series
	// are bit-identical either way.
	TomoCold bool
}

// ApplyDefaults returns o with zero fields replaced by defaults scaled to
// the run duration.
func (o AnalyzeOptions) ApplyDefaults(duration netsim.Time) AnalyzeOptions {
	if o.Fig2Window <= 0 {
		o.Fig2Window = 10 * time.Second
	}
	if o.Fig2At <= 0 {
		o.Fig2At = duration / 2
	}
	if o.CongestionThreshold <= 0 {
		o.CongestionThreshold = congestion.DefaultThreshold
	}
	if o.Fig8Period <= 0 {
		o.Fig8Period = 24 * time.Hour
		if duration < 2*o.Fig8Period {
			o.Fig8Period = duration / 8
			if o.Fig8Period <= 0 {
				o.Fig8Period = duration
			}
		}
	}
	if o.Fig10Bin <= 0 {
		o.Fig10Bin = 10 * time.Second
	}
	if o.TomoBin <= 0 {
		o.TomoBin = 10 * time.Minute
		if duration < 12*o.TomoBin {
			o.TomoBin = duration / 12
			if o.TomoBin <= 0 {
				o.TomoBin = duration
			}
		}
	}
	if o.TomoMaxTMs <= 0 {
		o.TomoMaxTMs = 144 // a day of 10-minute TMs
	}
	if o.JobPriorAlpha <= 0 {
		o.JobPriorAlpha = 4
	}
	return o
}

// Report holds the regenerated data for every figure in the paper.
type Report struct {
	Overhead trace.Overhead

	Fig2  Fig2Data
	Fig3  Fig3Data
	Fig4  Fig4Data
	Fig5  Fig5Data
	Fig6  Fig6Data
	Fig7  Fig7Data
	Fig8  Fig8Data
	Fig9  Fig9Data
	Fig10 Fig10Data
	Fig11 Fig11Data
	Fig12 Fig12Data
	Fig13 Fig13Data
	Fig14 Fig14Data

	Incast congestion.IncastAudit

	// Attribution is §4.2's network↔application join: which flow kinds'
	// bytes were on links while they ran hot.
	Attribution congestion.Attribution
}

// Fig2Data is the macroscopic TM snapshot: work-seeks-bandwidth +
// scatter-gather.
type Fig2Data struct {
	From, To netsim.Time
	TM       *tm.Matrix
	Patterns tm.PatternSummary
}

// Fig3Data is the distribution of non-zero TM entries by rack locality.
type Fig3Data struct {
	Entries       tm.EntryStats
	WithinDensity []stats.Point // density over loge(Bytes)
	AcrossDensity []stats.Point
}

// Fig4Data is the correspondents analysis.
type Fig4Data struct {
	Stats     tm.CorrespondentStats
	WithinCDF []stats.Point // CDF of fraction of in-rack correspondents
	AcrossCDF []stats.Point
}

// Fig5Data is when-and-where congestion happens.
type Fig5Data struct {
	Episodes       []congestion.Episode
	LinksMonitored int
	FracLinks10s   float64 // paper: 0.86
	FracLinks100s  float64 // paper: 0.15
	// MeanConcurrentShort counts how many links are simultaneously hot
	// during short episodes (correlation claim).
	MeanConcurrent float64
	// Correlation splits co-hot link counts by episode length (the paper:
	// short periods correlate across links, long ones localize).
	Correlation congestion.CorrelationStats
}

// Fig6Data is the congestion-episode duration distribution.
type Fig6Data struct {
	DurationCDF []stats.Point // seconds
	Episodes    int
	Over10s     int
	LongestSec  float64
	FracUnder10 float64 // of episodes >= 1s (paper: >90%)
}

// Fig7Data compares rates of congestion-overlapping flows to all flows.
type Fig7Data struct {
	OverlapCDF        []stats.Point // Mbps
	AllCDF            []stats.Point
	MedianOverlapMbps float64
	MedianAllMbps     float64
}

// Fig8Data is the read-failure impact of high utilization.
type Fig8Data struct {
	Period            netsim.Time
	Days              []congestion.DayImpact
	MedianIncreasePct float64
}

// Fig9Data is the flow-duration distribution.
type Fig9Data struct {
	ByFlowsCDF []stats.Point // seconds
	ByBytesCDF []stats.Point
	Summary    flows.Summary
}

// Fig10Data is traffic change over time.
type Fig10Data struct {
	Bin              netsim.Time
	Magnitude        []stats.Point // x: seconds, y: bytes/s
	Change10s        []float64     // lag-1 normalized change
	Change100s       []float64     // lag-10
	MedianChange10s  float64
	MedianChange100s float64
}

// Fig11Data is the inter-arrival analysis.
type Fig11Data struct {
	ClusterCDF    []stats.Point // ms
	TorCDF        []stats.Point
	ServerCDF     []stats.Point
	ModeMs        float64 // dominant short-gap mode at servers (paper ~15 ms)
	ArrivalPerSec float64
}

// Fig12Data is the tomography error comparison.
type Fig12Data struct {
	NumTMs                 int
	Tomogravity            []float64 // RMSRE per TM
	TomogravityJobs        []float64
	TomogravityRoles       []float64 // §5.3 future-work extension: phase-directed prior
	SparsityMax            []float64
	MedianTomogravity      float64
	MedianTomogravityJobs  float64
	MedianTomogravityRoles float64
	MedianSparsityMax      float64
}

// Fig13Data correlates tomogravity error with ground-truth sparsity.
type Fig13Data struct {
	// Per TM: x = fraction of entries for 75% volume, y = RMSRE.
	Points  []stats.Point
	Pearson float64
	// LogFit y = A + B·ln x (paper overlays a logarithmic best fit).
	FitA, FitB float64
}

// Fig14Data compares the sparsity of truth and estimates.
type Fig14Data struct {
	TruthCDF       []stats.Point // fraction of entries for 75% volume
	TomogravityCDF []stats.Point
	JobsCDF        []stats.Point
	SparsityCDF    []stats.Point
	// SparsityNonZeros is the mean non-zero count of sparsity-max
	// estimates (paper: ~150 ≈ 3% of entries at 75 ToRs).
	SparsityNonZeros float64
	// HeavyHitterHits is the mean number of sparsity-max non-zeros that
	// land on true 97th-percentile entries (paper: only 5–20).
	HeavyHitterHits float64
}

// Analyze regenerates every figure from a run.
//
// Deprecated: Analyze is the legacy struct-options entry point, kept so
// existing callers keep working unchanged. New code should call
// AnalyzeRun (or AnalyzeSource over a trace.Source) with functional
// options. This shim routes through the same streaming pipeline, so
// the Report is bit-identical to the replacement's.
func Analyze(rr *RunResult, opts AnalyzeOptions) *Report {
	rep, err := AnalyzeContext(context.Background(), rr, opts)
	if err != nil {
		// Only cancellation or a malformed source can fail the pipeline,
		// and a run's own record slice is neither cancellable nor
		// malformed.
		panic(err)
	}
	return rep
}

// AnalyzeContext regenerates every figure from a run under a context.
//
// Deprecated: use AnalyzeRun, which takes the same knobs as functional
// options. This shim forwards the whole struct in one option, so the
// two are interchangeable call-for-call.
func AnalyzeContext(ctx context.Context, rr *RunResult, opts AnalyzeOptions) (*Report, error) {
	return AnalyzeRun(ctx, rr, opts.asOption())
}

// asOption adapts the legacy struct to the functional-options config:
// the config embeds AnalyzeOptions, so the struct is copied in whole.
func (o AnalyzeOptions) asOption() AnalyzeOption {
	return func(c *analyzeConfig) { c.AnalyzeOptions = o }
}
