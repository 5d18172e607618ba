package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"dctraffic"
	"dctraffic/internal/core"
)

// Set-up probes: before measuring, a run times set-up alone at least
// minProbes times and for at least probeTime (at most maxProbes times),
// so setup_s is a steady median even when few pipelines fit in a run
// and one set-up takes well under a millisecond.
const (
	minProbes = 5
	maxProbes = 2000
	probeTime = 500 * time.Millisecond
)

// runConfig is one benchmark invocation.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	sizes   sizes
	dir     string // scratch directory, removed by the caller
}

type passKind int

func (k passKind) String() string { return [...]string{"plain", "traced", "no-observer"}[k] }

const (
	plainPass  passKind = iota // tracing off, default options: the end-to-end numbers
	tracedPass                 // spans and metric registries on: the per-layer numbers
	noObsPass                  // metric collection off (WithObserver(nil)): obs.overhead_s
)

// pass is one execution of a workload's pipelines.
type pass struct {
	kind   passKind
	heap   heapSampler
	tr     *tracer            // traced passes only
	layers map[string]float64 // traced passes only
}

// set records a per-layer value; untraced passes ignore it.
func (p *pass) set(name string, v float64) {
	if p.layers != nil {
		p.layers[name] = v
	}
}

// outcome is one pipeline's report, or the error it returned. A report
// is digested after the pass's clock stops; the fleet hands back its
// runs' digests instead.
type outcome struct {
	rep    *dctraffic.Report
	digest string
	err    error
}

// digestOf returns the digest of a pipeline's report, or its error.
func digestOf(rep *dctraffic.Report, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return core.ReportDigest(rep)
}

// passResult is what a workload's run function hands back.
type passResult struct {
	setup float64 // seconds of set-up inside the pass
	outs  []outcome
	// after, when set on a traced pass, takes follow-up timings (trace
	// compression, the tomography replay) outside the pass's wall clock.
	after func(p *pass)
}

// instance is a workload made ready to run: inputs generated and the
// reference digests computed.
type instance struct {
	ref   []string // one reference digest per pipeline of a pass
	run   func(ctx context.Context, p *pass) passResult
	probe func(ctx context.Context) (float64, error) // one set-up alone; nil if none
	noObs bool                                       // traced runs also measure obs.overhead_s
}

// workload is one named workload; BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name    string
	prepare func(ctx context.Context, cfg runConfig) (*instance, error)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// sample is the measurement of one pass.
type sample struct {
	kind                     passKind
	wall, cpu, heapMB, setup float64
	allocMB, gcCPU, gcCycles float64
	attempted, failed        int
	digests                  []string
	layers                   map[string]float64
}

// result is everything one benchmark run measured.
type result struct {
	traced  bool
	prov    provenance
	tr      *tracer
	setups  []float64 // from set-up probes
	samples []sample
}

// execute prepares the workload and measures it for cfg.seconds.
func execute(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	inst, err := w.prepare(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return measure(ctx, w.name, inst, cfg)
}

// measure runs passes until cfg.seconds have elapsed, at least one of
// each kind. A traced run alternates plain, traced and (where the
// workload has it) observer-off passes so they see the same machine.
func measure(ctx context.Context, name string, inst *instance, cfg runConfig) (*result, error) {
	r := &result{traced: cfg.traced, prov: newProvenance(name, cfg.seed, inst.ref)}
	if cfg.traced {
		r.tr = newTracer()
	}
	probeStart := time.Now()
	for i := 0; inst.probe != nil && i < maxProbes && (i < minProbes || time.Since(probeStart) < probeTime); i++ {
		runtime.GC()
		s, err := inst.probe(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up probe: %w", name, err)
		}
		r.setups = append(r.setups, s)
	}
	kinds := []passKind{plainPass}
	if cfg.traced {
		kinds = append(kinds, tracedPass)
		if inst.noObs {
			kinds = append(kinds, noObsPass)
		}
	}
	deadline := time.Now().Add(cfg.seconds)
	for len(r.samples) == 0 || time.Now().Before(deadline) {
		for _, k := range kinds {
			if err := r.pass(ctx, inst, k); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	for _, s := range r.samples {
		r.prov.RunDigests = append(r.prov.RunDigests, s.digests)
	}
	return r, nil
}

func (r *result) pass(ctx context.Context, inst *instance, kind passKind) error {
	p := &pass{kind: kind}
	if kind == tracedPass {
		p.tr = r.tr
		p.layers = map[string]float64{}
	}
	runtime.GC() // start every pass from the same live heap
	before, err := readRuntime()
	if err != nil {
		return err
	}
	start := time.Now()
	root := p.tr.begin("op")
	pr := inst.run(ctx, p)
	p.tr.end(root)
	wall := time.Since(start).Seconds()
	after, err := readRuntime()
	if err != nil {
		return err
	}
	p.heap.sample()

	s := sample{
		kind:     kind,
		wall:     wall,
		cpu:      after.cpu - before.cpu,
		heapMB:   float64(p.heap.peak.Load()) / (1 << 20),
		setup:    pr.setup,
		allocMB:  (after.allocs - before.allocs) / (1 << 20),
		gcCPU:    after.gcCPU - before.gcCPU,
		gcCycles: after.gcCycles - before.gcCycles,
		layers:   p.layers,
	}
	for i, o := range pr.outs {
		if o.rep != nil || o.err != nil {
			o.digest, o.err = digestOf(o.rep, o.err)
		}
		s.attempted++
		s.digests = append(s.digests, o.digest)
		switch {
		case o.err != nil:
			s.failed++
			fmt.Fprintf(os.Stderr, "perfbench: pipeline %d failed: %v\n", i, o.err)
		case i >= len(inst.ref) || o.digest != inst.ref[i]:
			s.failed++
			fmt.Fprintf(os.Stderr, "perfbench: pipeline %d digest %s differs from its one-worker reference\n", i, o.digest)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: pass %d (%s): wall %.4fs cpu %.4fs heap %.1fMiB setup %.5fs\n",
		len(r.samples), kind, s.wall, s.cpu, s.heapMB, s.setup)
	if pr.after != nil && kind == tracedPass {
		pr.after(p)
	}
	r.samples = append(r.samples, s)
	return nil
}

// values collects one field over the samples of a kind.
func (r *result) values(kind passKind, f func(sample) float64) []float64 {
	var xs []float64
	for _, s := range r.samples {
		if s.kind == kind {
			xs = append(xs, f(s))
		}
	}
	return xs
}

func (r *result) med(kind passKind, f func(sample) float64) float64 {
	return median(r.values(kind, f))
}

// layer returns the median of a per-layer value over the traced passes
// that recorded it, 0 when none did.
func (r *result) layer(name string) float64 {
	var xs []float64
	for _, s := range r.samples {
		if v, ok := s.layers[name]; ok && s.kind == tracedPass {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// metricValues returns the reported metrics: end-to-end ones for an
// untraced run, per-layer ones for a traced run.
func (r *result) metricValues() map[string]float64 {
	m := map[string]float64{}
	if !r.traced {
		m["wall_s"] = r.med(plainPass, func(s sample) float64 { return s.wall })
		m["cpu_s"] = r.med(plainPass, func(s sample) float64 { return s.cpu })
		m["peak_heap_mb"] = r.med(plainPass, func(s sample) float64 { return s.heapMB })
		m["setup_s"] = median(append(r.values(plainPass, func(s sample) float64 { return s.setup }), r.setups...))
		return m
	}
	for _, d := range perLayer {
		m[d.name] = r.layer(d.name)
	}
	plainWall := r.med(plainPass, func(s sample) float64 { return s.wall })
	m["runtime.alloc_mb"] = r.med(plainPass, func(s sample) float64 { return s.allocMB })
	m["runtime.gc_cpu_s"] = r.med(plainPass, func(s sample) float64 { return s.gcCPU })
	m["runtime.gc_cycles"] = r.med(plainPass, func(s sample) float64 { return s.gcCycles })
	m["bench.trace_overhead_s"] = r.med(tracedPass, func(s sample) float64 { return s.wall }) - plainWall
	if noObs := r.values(noObsPass, func(s sample) float64 { return s.wall }); len(noObs) > 0 {
		m["obs.overhead_s"] = plainWall - median(noObs)
	}
	return m
}

// summary is the result line the benchmark prints last.
func (r *result) summary() map[string]any {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	metrics := map[string]any{}
	for name, v := range r.metricValues() {
		metrics[name] = map[string]any{"value": v, "unit": units[name]}
	}
	attempted, failed := 0, 0
	for _, s := range r.samples {
		attempted += s.attempted
		failed += s.failed
	}
	return map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
}

// opLayers returns, for each root "op" span of a traced run, the wall
// clock of the pass and the self time of every layer inside it, the
// layer being the span name up to its first dot.
func opLayers(spans []span) []opSelf {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	var ops []opSelf
	index := map[int]int{}
	for i, s := range spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		if spans[root[i]].Name != "op" {
			continue
		}
		k, ok := index[root[i]]
		if !ok {
			k = len(ops)
			index[root[i]] = k
			ops = append(ops, opSelf{Wall: s.End - s.Start, Self: map[string]float64{}})
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		ops[k].Self[layer] += self[i]
	}
	return ops
}

// opSelf is one traced pass's wall clock and per-layer self times.
type opSelf struct {
	Wall float64            `json:"wall_s"`
	Self map[string]float64 `json:"self_s"`
}

// spanFile is what a traced run writes at exit.
func (r *result) spanFile() map[string]any {
	return map[string]any{"provenance": r.prov, "spans": r.tr.spans, "ops": opLayers(r.tr.spans)}
}

// provenance identifies the build, machine settings and inputs behind a
// result, so results from different revisions can be compared.
type provenance struct {
	GoVersion   string     `json:"go_version"`
	Revision    string     `json:"vcs_revision"`
	Modified    string     `json:"vcs_modified"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	GOMEMLIMIT  string     `json:"gomemlimit"`
	NumCPU      int        `json:"nproc"`
	Workload    string     `json:"workload"`
	Seed        uint64     `json:"seed"`
	HeldOutSeed uint64     `json:"held_out_seed"`
	Reference   []string   `json:"reference_digests"`
	RunDigests  [][]string `json:"run_digests"`
}

func newProvenance(workload string, seed uint64, ref []string) provenance {
	p := provenance{
		GoVersion:   runtime.Version(),
		Revision:    "unknown",
		Modified:    "unknown",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOMEMLIMIT:  "off",
		NumCPU:      runtime.NumCPU(),
		Workload:    workload,
		Seed:        seed,
		HeldOutSeed: heldOutSeed,
		Reference:   ref,
	}
	if limit := debug.SetMemoryLimit(-1); limit != math.MaxInt64 {
		p.GOMEMLIMIT = fmt.Sprint(limit)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}
