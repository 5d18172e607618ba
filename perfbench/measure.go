package main

import (
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's entry points. Start and End are seconds since the
// tracer's epoch; Parent is -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// benchmark's own goroutine only; spans nest as a stack. A nil tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	now := t.since(time.Now())
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = t.since(time.Now())
	t.open = t.open[:len(t.open)-1]
	return s.End - s.Start
}

// record adds a finished span with explicit times as a child of the
// innermost open span, for an interval whose ends were observed on
// another goroutine (the simulator's progress callback).
func (t *tracer) record(name string, start, end time.Time) float64 {
	if t == nil {
		return 0
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: t.since(start), End: t.since(end)})
	return end.Sub(start).Seconds()
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap: they are recorded on one
// goroutine, and a recorded interval lies within its parent.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// heapSampler tracks the highest live heap seen by sample. It is safe
// for concurrent use: simulator and analysis progress callbacks run on
// different goroutines.
type heapSampler struct{ peak atomic.Uint64 }

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// runtimeStats are process-wide counters read before and after a pass.
type runtimeStats struct {
	cpu      float64 // user+sys seconds (getrusage)
	allocs   float64 // bytes allocated
	gcCPU    float64 // estimated GC CPU seconds
	gcCycles float64
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func readRuntime() (runtimeStats, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return runtimeStats{}, err
	}
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		cpu:      timeval(ru.Utime) + timeval(ru.Stime),
		allocs:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: float64(s[2].Value.Uint64()),
	}, nil
}

func timeval(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
