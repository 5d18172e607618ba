package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// tinySizes runs every workload's code paths in seconds. The replay
// trace is too small to spill, so the record floor is off.
var tinySizes = sizes{
	fused:       20 * time.Minute,
	tomo:        20 * time.Minute,
	tomoDrain:   5 * time.Minute,
	tomoRacks:   8,
	replay:      20 * time.Minute,
	replayRacks: 8,
	sweepRuns:   2,
	sweep:       20 * time.Minute,
}

func tinyConfig(t *testing.T, traced bool) runConfig {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return runConfig{seed: 3, seconds: time.Millisecond, traced: traced, sizes: tinySizes, dir: dir}
}

func tinyRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	res, err := execute(context.Background(), w, tinyConfig(t, traced))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced and checks the result line: every named metric with its unit,
// no failed pipelines, and the traced run's per-layer self times within
// the pass's wall clock.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			res := tinyRun(t, w, traced)
			sum := res.summary()
			if sum["correct"] != true || sum["failed"] != 0 || sum["attempted"].(int) < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%v failed=%v", w.name, traced,
					sum["correct"], sum["attempted"], sum["failed"])
			}
			metrics := sum["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(metrics), len(want))
			}
			for _, d := range want {
				m, ok := metrics[d.name].(map[string]any)
				if !ok || m["unit"] != d.unit {
					t.Errorf("%s traced=%v: metric %s = %v, want unit %s", w.name, traced, d.name, metrics[d.name], d.unit)
					continue
				}
				if v := m["value"].(float64); !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
				}
			}
			if traced {
				checkSelfTimes(t, w.name, res)
			}
		}
	}
}

// checkSelfTimes asserts that within every traced pass no layer's self
// time is negative or exceeds the pass's wall clock, and that together
// they do not exceed it either.
func checkSelfTimes(t *testing.T, name string, res *result) {
	t.Helper()
	ops := opLayers(res.tr.spans)
	if len(ops) == 0 {
		t.Errorf("%s: traced run recorded no op spans", name)
	}
	const eps = 1e-9
	for i, op := range ops {
		var sum float64
		for layer, self := range op.Self {
			if self < -eps || self > op.Wall+eps {
				t.Errorf("%s op %d: layer %s self time %v outside [0, wall %v]", name, i, layer, self, op.Wall)
			}
			sum += self
		}
		if sum > op.Wall+eps {
			t.Errorf("%s op %d: self times sum to %v, over the wall clock %v", name, i, sum, op.Wall)
		}
		if len(op.Self) < 2 {
			t.Errorf("%s op %d: want spans below the op span, got layers %v", name, i, op.Self)
		}
	}
}

// TestDigestGateCountsWrongReference hands the sweep a wrong reference
// for one of its runs: that run, and only it, must count as failed.
func TestDigestGateCountsWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep")
	}
	w, _ := workloadByName("sweep")
	cfg := tinyConfig(t, false)
	inst, err := w.prepare(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst.ref[1] = "0000"
	res, err := measure(context.Background(), w.name, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.summary()
	passes := len(res.samples)
	if sum["correct"] != false || sum["attempted"] != 2*passes || sum["failed"] != passes {
		t.Errorf("wrong reference for one run of %d passes: correct=%v attempted=%v failed=%v",
			passes, sum["correct"], sum["attempted"], sum["failed"])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "core.a", Start: 1, End: 5},
		{ID: 2, Parent: 1, Name: "core.tail", Start: 4, End: 5},
		{ID: 3, Parent: 0, Name: "trace.b", Start: 6, End: 9},
		{ID: 4, Parent: -1, Name: "tomo.replay", Start: 11, End: 12},
	}
	ops := opLayers(spans)
	if len(ops) != 1 || ops[0].Wall != 10 {
		t.Fatalf("ops = %+v, want one op of wall 10", ops)
	}
	want := map[string]float64{"op": 3, "core": 4, "trace": 3}
	for layer, v := range want {
		if ops[0].Self[layer] != v {
			t.Errorf("self[%s] = %v, want %v", layer, ops[0].Self[layer], v)
		}
	}
}
