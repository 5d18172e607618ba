package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dctraffic"
	"dctraffic/internal/fleet"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
	"dctraffic/internal/topology"
)

// sizes scales the workloads: fullSizes is the benchmark, the tests use
// a tiny variant with the same code paths.
type sizes struct {
	fused            time.Duration // laptop-fused window
	tomo, tomoDrain  time.Duration // wide-tomo window and drain
	tomoRacks        int           // wide-tomo racks (PaperRun has 75)
	replay           time.Duration // trace-replay window
	replayRacks      int
	replayMinRecords int // the trace must exceed one external-sort chunk
	sweepRuns        int
	sweep            time.Duration // window of each sweep run
}

var fullSizes = sizes{
	fused:            4 * time.Hour,
	tomo:             time.Hour,
	tomoDrain:        15 * time.Minute,
	tomoRacks:        65,
	replay:           4 * time.Hour,
	replayRacks:      16,
	replayMinRecords: 1<<18 + 1,
	sweepRuns:        4,
	sweep:            time.Hour,
}

// The simulated clusters use the seeds their configurations ship with
// (SmallRun and PaperRun: 1; sweep runs: 1..n), not --seed. Placement
// and arrivals drawn from another simulation seed change the work of a
// run up to 20x (SmallRun, 4 h, seeds 1-6 on a 2-CPU VM: 1.1 to 25.5 s,
// 104 k to 474 k records), and no run length that fits the benchmark's
// time averages that out. --seed instead varies inputs that leave the work unchanged:
// the server labels of the replayed trace.
var workloads = []workload{
	{"laptop-fused", prepareFused},
	{"wide-tomo", prepareWideTomo},
	{"trace-replay", prepareReplay},
	{"sweep", prepareSweep},
}

// oneWorker returns the reference variant of cfg: the simulator's
// domain engine at one worker.
func oneWorker(cfg dctraffic.RunConfig) dctraffic.RunConfig {
	cfg.Workers = 1
	return cfg
}

// probeBuild times one simulator set-up alone: Run with an already
// canceled context builds the cluster under the "build" phase and stops
// before the first event.
func probeBuild(cfg dctraffic.RunConfig) func(context.Context) (float64, error) {
	return func(ctx context.Context) (float64, error) {
		reg := dctraffic.NewRegistry()
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := dctraffic.Run(canceled, cfg, dctraffic.WithObserver(reg)); !errors.Is(err, context.Canceled) {
			return 0, fmt.Errorf("set-up probe: want a canceled run, got %v", err)
		}
		b := phase(reg.Snapshot(), "build")
		if b <= 0 {
			return 0, errors.New("set-up probe: no build phase")
		}
		return b, nil
	}
}

func prepareFused(ctx context.Context, c runConfig) (*instance, error) {
	cfg := dctraffic.SmallRun()
	cfg.Duration = c.sizes.fused
	_, rep, err := dctraffic.RunAnalyze(ctx, oneWorker(cfg), dctraffic.WithAnalyzeParallelism(1))
	ref, err := digestOf(rep, err)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	run := func(ctx context.Context, p *pass) passResult {
		var lastSim time.Time // written on the simulator goroutine, read after it is joined
		runOpts := []dctraffic.RunOption{dctraffic.WithProgress(func(dctraffic.Progress) {
			p.heap.sample()
			if p.tr != nil {
				lastSim = time.Now()
			}
		})}
		if p.kind == noObsPass {
			runOpts = append(runOpts, dctraffic.WithObserver(nil))
		}
		opts := []dctraffic.AnalyzeOption{
			dctraffic.WithRunOptions(runOpts...),
			dctraffic.WithAnalyzeProgress(func(dctraffic.StreamProgress) { p.heap.sample() }),
		}
		var areg *dctraffic.Registry
		if p.tr != nil {
			areg = dctraffic.NewRegistry()
			opts = append(opts, dctraffic.WithAnalyzeObserver(areg))
		}
		sp := p.tr.begin("core.run_analyze")
		rr, rep, err := dctraffic.RunAnalyze(ctx, cfg, opts...)
		if p.tr != nil && err == nil && !lastSim.IsZero() {
			p.set("core.fused_tail_s", p.tr.record("core.fused_tail", lastSim, time.Now()))
		}
		p.tr.end(sp)
		res := passResult{outs: []outcome{{rep: rep, err: err}}}
		if err != nil {
			return res
		}
		res.setup = phase(rr.Metrics, "build")
		if p.tr != nil {
			simLayers(p, rr.Metrics)
			analyzeLayers(p, areg.Snapshot())
			res.after = func(p *pass) { runFollowUps(p, rr) }
		}
		return res
	}
	return &instance{ref: []string{ref}, run: run, probe: probeBuild(cfg), noObs: true}, nil
}

func prepareWideTomo(ctx context.Context, c runConfig) (*instance, error) {
	cfg := dctraffic.PaperRun()
	cfg.Duration = c.sizes.tomo
	cfg.DrainTime = c.sizes.tomoDrain
	cfg.Topology.Racks = c.sizes.tomoRacks
	refRun, err := dctraffic.Run(ctx, oneWorker(cfg))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref, err := digestOf(dctraffic.AnalyzeRun(ctx, refRun, dctraffic.WithAnalyzeParallelism(1)))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	run := func(ctx context.Context, p *pass) passResult {
		sp := p.tr.begin("netsim.run")
		rr, err := dctraffic.Run(ctx, cfg, dctraffic.WithProgress(func(dctraffic.Progress) { p.heap.sample() }))
		p.tr.end(sp)
		if err != nil {
			return passResult{outs: []outcome{{err: err}}}
		}
		opts := []dctraffic.AnalyzeOption{dctraffic.WithAnalyzeProgress(func(dctraffic.StreamProgress) { p.heap.sample() })}
		var areg *dctraffic.Registry
		if p.tr != nil {
			areg = dctraffic.NewRegistry()
			opts = append(opts, dctraffic.WithAnalyzeObserver(areg))
		}
		sp = p.tr.begin("core.analyze_run")
		rep, err := dctraffic.AnalyzeRun(ctx, rr, opts...)
		p.tr.end(sp)
		res := passResult{setup: phase(rr.Metrics, "build"), outs: []outcome{{rep: rep, err: err}}}
		if p.tr != nil && err == nil {
			simLayers(p, rr.Metrics)
			analyzeLayers(p, areg.Snapshot())
			res.after = func(p *pass) { runFollowUps(p, rr) }
		}
		return res
	}
	return &instance{ref: []string{ref}, run: run, probe: probeBuild(cfg)}, nil
}

func prepareReplay(ctx context.Context, c runConfig) (*instance, error) {
	cfg := dctraffic.SmallRun()
	cfg.Duration = c.sizes.replay
	cfg.Topology.Racks = c.sizes.replayRacks
	// Arrivals scale with server count, as cmd/dcsim does.
	cfg.Sched.JobsPerHour = 150 * float64(cfg.Topology.Racks*cfg.Topology.ServersPerRack) / 80
	path := filepath.Join(c.dir, "replay.jsonl")
	n, err := writeTrace(ctx, cfg, c.seed, path)
	if err != nil {
		return nil, err
	}
	if n < c.sizes.replayMinRecords {
		return nil, fmt.Errorf("trace has %d records, want at least %d for the external sort to spill", n, c.sizes.replayMinRecords)
	}

	replay := func(ctx context.Context, p *pass, extra ...dctraffic.AnalyzeOption) passResult {
		sp := p.tr.begin("topology.new")
		start := time.Now()
		top, err := dctraffic.NewTopology(cfg.Topology)
		res := passResult{setup: time.Since(start).Seconds()}
		p.tr.end(sp)
		if err != nil {
			res.outs = []outcome{{err: err}}
			return res
		}
		p.set("topology.build_s", res.setup)
		sp = p.tr.begin("trace.open")
		src, err := dctraffic.OpenTraceFile(path)
		p.set("trace.open_s", p.tr.end(sp))
		if err != nil {
			res.outs = []outcome{{err: err}}
			return res
		}
		opts := append([]dctraffic.AnalyzeOption{
			dctraffic.WithAnalyzeTopology(top),
			dctraffic.WithAnalyzeDuration(cfg.Duration),
		}, extra...)
		opts = append(opts, dctraffic.WithAnalyzeProgress(func(dctraffic.StreamProgress) { p.heap.sample() }))
		var areg *dctraffic.Registry
		if p.tr != nil {
			areg = dctraffic.NewRegistry()
			opts = append(opts, dctraffic.WithAnalyzeObserver(areg))
		}
		sp = p.tr.begin("core.analyze_source")
		rep, err := dctraffic.AnalyzeSource(ctx, src, opts...)
		p.tr.end(sp)
		sp = p.tr.begin("trace.close")
		if cerr := src.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close trace: %w", cerr)
		}
		p.tr.end(sp)
		res.outs = []outcome{{rep: rep, err: err}}
		if p.tr != nil && err == nil {
			snap := areg.Snapshot()
			analyzeLayers(p, snap)
			p.set("trace.records", snap.Value("analyze.records_total"))
		}
		return res
	}
	o := replay(ctx, &pass{}, dctraffic.WithAnalyzeParallelism(1)).outs[0]
	ref, err := digestOf(o.rep, o.err)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	probe := func(context.Context) (float64, error) {
		start := time.Now()
		_, err := dctraffic.NewTopology(cfg.Topology)
		return time.Since(start).Seconds(), err
	}
	return &instance{
		ref:   []string{ref},
		run:   func(ctx context.Context, p *pass) passResult { return replay(ctx, p) },
		probe: probe,
	}, nil
}

// writeTrace simulates cfg and writes its records as a JSONL trace,
// returning the record count. The servers of each rack are relabeled
// by a permutation drawn from seed: every server keeps its rack, so the
// trace is a different input with the same work.
func writeTrace(ctx context.Context, cfg dctraffic.RunConfig, seed uint64, path string) (int, error) {
	rr, err := dctraffic.Run(ctx, cfg)
	if err != nil {
		return 0, fmt.Errorf("simulate trace: %w", err)
	}
	label := make([]topology.ServerID, rr.Top.NumServers())
	rng := dctraffic.NewRNG(seed)
	for r := 0; r < rr.Top.NumRacks(); r++ {
		servers := rr.Top.RackServers(topology.RackID(r))
		for i, j := range rng.Perm(len(servers)) {
			label[servers[i]] = servers[j]
		}
	}
	relabel := func(s topology.ServerID) topology.ServerID {
		if rr.Top.IsExternal(s) {
			return s
		}
		return label[s]
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := dctraffic.NewTraceWriter(f)
	recs := rr.Records()
	for _, rec := range recs {
		rec.Src, rec.Dst = relabel(rec.Src), relabel(rec.Dst)
		if err := w.Write(&rec); err != nil {
			f.Close()
			return 0, fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("write trace: %w", err)
	}
	return len(recs), nil
}

func prepareSweep(ctx context.Context, c runConfig) (*instance, error) {
	specs := make([]fleet.RunSpec, c.sizes.sweepRuns)
	ref := make([]string, len(specs))
	for k := range specs {
		cfg := dctraffic.SmallRun()
		cfg.Seed = uint64(k + 1)
		cfg.Duration = c.sizes.sweep
		cfg.DrainTime = 10 * time.Minute
		specs[k] = fleet.RunSpec{Name: fmt.Sprintf("seed%d", cfg.Seed), Config: cfg}
		_, rep, err := dctraffic.RunAnalyze(ctx, oneWorker(cfg), dctraffic.WithAnalyzeParallelism(1))
		if ref[k], err = digestOf(rep, err); err != nil {
			return nil, fmt.Errorf("reference %s: %w", specs[k].Name, err)
		}
	}
	run := func(ctx context.Context, p *pass) passResult {
		sp := p.tr.begin("fleet.execute")
		res, err := fleet.Execute(ctx, specs, fleet.Options{
			Concurrency: 2,
			AnalyzeOpts: []dctraffic.AnalyzeOption{dctraffic.WithAnalyzeProgress(func(dctraffic.StreamProgress) { p.heap.sample() })},
		})
		wall := p.tr.end(sp)
		var pr passResult
		if err != nil {
			for range specs {
				pr.outs = append(pr.outs, outcome{err: err})
			}
			return pr
		}
		var runWall float64
		agg := &dctraffic.MetricsSnapshot{}
		for _, o := range res.Outcomes {
			if o.Err != nil {
				pr.outs = append(pr.outs, outcome{err: o.Err})
				continue
			}
			pr.outs = append(pr.outs, outcome{digest: o.Digest})
			pr.setup += phase(o.SimMetrics, "build")
			runWall += o.WallSeconds
			if o.SimMetrics != nil && o.AnalyzeMetrics != nil {
				agg.Phases = append(agg.Phases, o.SimMetrics.Phases...)
				agg.Phases = append(agg.Phases, o.AnalyzeMetrics.Phases...)
			}
		}
		if p.tr != nil && res.Failed == 0 {
			// The merged snapshot's unprefixed series are the cross-run
			// aggregate (counters summed, gauges maxed); phases sum here.
			agg.Series = res.Metrics.Series
			simLayers(p, agg)
			analyzeLayers(p, agg)
			p.set("fleet.run_wall_s", runWall)
			p.set("fleet.overlap", runWall/wall)
			p.set("fleet.admission_waits", res.Metrics.Value("fleet.admission_waits_total"))
			p.set("fleet.topo_cache_hits", res.Metrics.Value("fleet.topo_cache_hits_total"))
			p.set("fleet.pool.queue_peak", res.Metrics.Value("fleet.pool.queue_peak"))
		}
		return pr
	}
	return &instance{ref: ref, run: run}, nil
}

// runFollowUps takes the traced-only timings on a finished run: the
// trace compression measurement the analysis makes, and the tomography
// replay.
func runFollowUps(p *pass, rr *dctraffic.RunResult) {
	sp := p.tr.begin("trace.compress")
	_, err := rr.Collector.MeasuredCompression(0)
	if d := p.tr.end(sp); err == nil {
		p.set("trace.compress_s", d)
	}
	sp = p.tr.begin("tomo.replay")
	solve := replayTomo(rr)
	p.tr.end(sp)
	p.set("tomo.solve_s", solve)
}

// Tomography defaults of the analysis, which the replay mirrors: 10
// minute bins (duration/12 below two hours), at most 144 windows, and
// a job-prior alpha of 4.
const (
	tomoBin      = 10 * time.Minute
	tomoMaxTMs   = 144
	tomoJobAlpha = 4
)

// replayTomo replays the run's tomography windows in order through one
// warm-started tomo.Estimator, making the analysis's calls on each
// window, and returns the seconds spent in them. Windows whose
// estimate fails are skipped, as in the analysis.
func replayTomo(rr *dctraffic.RunResult) float64 {
	dur := rr.Config.Duration
	bin := tomoBin
	if dur < 12*bin {
		bin = dur / 12
	}
	n := min(int((dur+bin-1)/bin), tomoMaxTMs)
	est := tomo.NewProblem(rr.Top).NewEstimator(tomo.EstimatorOptions{})
	recs := rr.Records()
	var b, tg, tj, tr, sm []float64
	var solve time.Duration
	for i := 0; i < n; i++ {
		from, to := tm.SeriesBinWindow(i, bin, dur)
		truth := tm.TorMatrix(recs, rr.Top, from, to)
		if truth.Total() <= 0 {
			continue
		}
		start := time.Now()
		func() {
			var err error
			b = est.LinkCountsInto(b, truth)
			if tg, err = est.TomogravityInto(tg, b); err != nil {
				return
			}
			mult := tomo.JobMultiplier(rr.Log, rr.Top, from, from+bin, tomoJobAlpha)
			if tj, err = est.TomogravityWithMultiplierInto(tj, b, mult); err != nil {
				return
			}
			roles := tomo.RoleAwareMultiplier(rr.Log, rr.Top, from, from+bin, tomoJobAlpha)
			if tr, err = est.TomogravityWithMultiplierInto(tr, b, roles); err != nil {
				return
			}
			sm, _ = est.SparsityMaxInto(sm, b)
		}()
		solve += time.Since(start)
	}
	return solve.Seconds()
}

func phase(s *dctraffic.MetricsSnapshot, name string) float64 {
	if s == nil {
		return 0
	}
	var sum float64
	for _, ph := range s.Phases {
		if ph.Name == name {
			sum += ph.Seconds
		}
	}
	return sum
}

// histMean and histSum read a histogram series (0 when absent or empty).
func histMean(s *dctraffic.MetricsSnapshot, name string) float64 {
	se, ok := s.Get(name)
	if !ok || se.Count == 0 {
		return 0
	}
	return se.Sum / float64(se.Count)
}

func histSum(s *dctraffic.MetricsSnapshot, name string) float64 {
	se, _ := s.Get(name)
	return se.Sum
}

// simLayers records the simulator-side per-layer values of a run
// snapshot.
func simLayers(p *pass, s *dctraffic.MetricsSnapshot) {
	sim, events := phase(s, "simulate"), s.Value("netsim.events_total")
	p.set("topology.build_s", phase(s, "build"))
	p.set("netsim.simulate_s", sim)
	p.set("netsim.events", events)
	if events > 0 {
		p.set("netsim.host_us_per_event", sim/events*1e6)
	}
	p.set("netsim.recomputes_dirty", s.Value("netsim.recomputes_dirty_total"))
	p.set("netsim.recompute_links_mean", histMean(s, "netsim.recompute_component_links"))
	p.set("netsim.parallel.windows", s.Value("netsim.parallel.windows_total"))
	p.set("netsim.parallel.barrier_waits", s.Value("netsim.parallel.barrier_waits_total"))
	p.set("scope.jobs_submitted", s.Value("scope.jobs_submitted_total"))
	p.set("scope.vertices_started", s.Value("scope.vertices_started_total"))
	p.set("cosmos.transfer_committed_bytes", s.Value("cosmos.transfer_committed_bytes_total"))
	p.set("trace.records", s.Value("trace.records_total"))
	if _, fused := s.Get("trace.live.buffered_peak"); fused {
		p.set("trace.live.buffered_peak", s.Value("trace.live.buffered_peak"))
		p.set("trace.live.watermark_lag_mean_s", histMean(s, "trace.live.watermark_lag_seconds"))
		p.set("pipeline.backpressure_waits", s.Value("pipeline.backpressure_waits"))
	}
}

// analyzeLayers records the analysis-side per-layer values of an
// analysis snapshot. core.analyze_s is the sum of the pipeline's own
// phases, the one definition that also holds inside the fused pipeline.
func analyzeLayers(p *pass, s *dctraffic.MetricsSnapshot) {
	idx, figs, cong := phase(s, "analyze.index"), phase(s, "analyze.figures"), phase(s, "analyze.congestion")
	p.set("core.analyze_s", idx+figs+cong)
	p.set("analyze.index_s", idx)
	p.set("analyze.figures_s", figs)
	p.set("analyze.congestion_s", cong)
	p.set("analyze.tasks", s.Value("analyze.tasks_total"))
	p.set("analyze.stream.peak_buffered_records", s.Value("analyze.stream.peak_buffered_records"))
	if _, ok := s.Get("tomo.windows_warm"); ok {
		warm, cold := s.Value("tomo.windows_warm"), s.Value("tomo.windows_cold")
		p.set("tomo.pivots", histSum(s, "tomo.pivots_per_window"))
		p.set("tomo.refactorizations", histSum(s, "tomo.refactorizations_per_window"))
		if warm+cold > 0 {
			p.set("tomo.warm_frac", warm/(warm+cold))
		}
		p.set("tomo.windows_fallback", s.Value("tomo.windows_fallback"))
	}
}
