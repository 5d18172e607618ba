package tm

import (
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// matrixFixture builds a random record set, with some instantaneous
// records, over the small topology.
func matrixFixture(t *testing.T, n int, horizon netsim.Time) ([]trace.FlowRecord, *topology.Topology) {
	t.Helper()
	top, err := topology.New(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11).Fork("tm_view_test")
	recs := make([]trace.FlowRecord, n)
	for i := range recs {
		start := netsim.Time(rng.Float64() * float64(horizon))
		var dur netsim.Time
		if rng.IntN(5) > 0 { // leave some instantaneous records
			dur = netsim.Time(rng.Float64() * float64(time.Minute))
		}
		recs[i] = trace.FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(rng.IntN(top.NumHosts())),
			Dst:   topology.ServerID(rng.IntN(top.NumHosts())),
			Start: start,
			End:   start + dur,
			Bytes: int64(1 + rng.IntN(1<<24)),
		}
	}
	return recs, top
}

// matricesIdentical demands bit-identical entries.
func matricesIdentical(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.N() != want.N() || got.NonZero() != want.NonZero() {
		t.Fatalf("%s: shape %d/%d entries, want %d/%d", name, got.N(), got.NonZero(), want.N(), want.NonZero())
	}
	want.ForEach(func(src, dst int, bytes float64) {
		if g := got.At(src, dst); g != bytes {
			t.Fatalf("%s: entry (%d,%d) = %v, want %v", name, src, dst, g, bytes)
		}
	})
}

// Per-bin windowed aggregation must reproduce ServerSeries bin by bin —
// the decomposition the parallel Fig 10 shards rely on.
func TestSeriesBinWindowMatchesServerSeries(t *testing.T) {
	horizon := netsim.Time(95 * time.Second) // deliberately not a bin multiple
	bin := netsim.Time(10 * time.Second)
	recs, top := matrixFixture(t, 2000, horizon)
	series := ServerSeries(recs, top.NumHosts(), bin, horizon)
	for i := range series {
		from, to := SeriesBinWindow(i, bin, horizon)
		got := ServerMatrix(recs, top.NumHosts(), from, to)
		matricesIdentical(t, "bin", got, series[i])
	}
}
