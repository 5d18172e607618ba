package trace

import (
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// randomRecords builds a record set with the shapes that stress the
// index: long flows spanning many windows, instantaneous records, flows
// touching external hosts, and duplicate start times.
func randomRecords(t *testing.T, top *topology.Topology, n int, horizon netsim.Time) []FlowRecord {
	t.Helper()
	rng := stats.NewRNG(42).Fork("view_test")
	hosts := top.NumHosts()
	out := make([]FlowRecord, n)
	for i := range out {
		start := netsim.Time(rng.Float64() * float64(horizon))
		var dur netsim.Time
		switch rng.IntN(4) {
		case 0: // instantaneous
		case 1: // long-lived
			dur = netsim.Time(rng.Float64() * float64(horizon) / 4)
		default: // short
			dur = netsim.Time(rng.Float64() * float64(10*time.Second))
		}
		out[i] = FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(rng.IntN(hosts)),
			Dst:   topology.ServerID(rng.IntN(hosts)),
			Start: start,
			End:   start + dur,
			Bytes: int64(rng.IntN(1 << 20)),
		}
	}
	return out
}

func testTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.New(topology.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// feedWindow appends records (canonically sorted) and seals up to t.
func feedWindow(t *testing.T, w *WindowView, recs []FlowRecord, seal netsim.Time) {
	t.Helper()
	for _, r := range canonicalCopy(recs) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Seal(seal)
}

// naiveOverlapping is the reference overlap query: a full scan of the
// canonically sorted records with the predicate windowed aggregations
// (tm spreading) draw bytes from.
func naiveOverlapping(recs []FlowRecord, from, to netsim.Time) []FlowRecord {
	var out []FlowRecord
	for _, r := range canonicalCopy(recs) {
		if r.Start < to && (r.End > from || (r.End == r.Start && r.Start >= from)) {
			out = append(out, r)
		}
	}
	return out
}

// sameRecords fails unless got and want hold identical records in the
// same order.
func sameRecords(t *testing.T, what string, got, want []FlowRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %d, want %d (order or membership mismatch)", what, i, got[i].ID, want[i].ID)
		}
	}
}

// queryWindows covers the whole run, short and long spans, windows
// past the data, an empty window, and 50 random spans.
func queryWindows(horizon netsim.Time) [][2]netsim.Time {
	windows := [][2]netsim.Time{
		{0, horizon},
		{0, time.Second},
		{horizon / 2, horizon/2 + 10*time.Second},
		{horizon - time.Minute, horizon},
		{horizon / 3, horizon / 2},
		{horizon, horizon + time.Minute}, // beyond the data
		{horizon / 3, horizon / 3},       // empty window
	}
	rng := stats.NewRNG(7).Fork("windows")
	for i := 0; i < 50; i++ {
		from := netsim.Time(rng.Float64() * float64(horizon))
		windows = append(windows, [2]netsim.Time{from, from + netsim.Time(rng.Float64()*float64(time.Minute))})
	}
	return windows
}

// The overlap query must agree with the naive full-scan filter for
// every window, and visit records in canonical order.
func TestViewOverlappingMatchesNaiveFilter(t *testing.T) {
	top := testTopology(t)
	horizon := netsim.Time(10 * time.Minute)
	recs := randomRecords(t, top, 5000, horizon)
	wv := NewWindowView()
	feedWindow(t, wv, recs, horizon*2)

	for _, win := range queryWindows(horizon) {
		from, to := win[0], win[1]
		var got []FlowRecord
		wv.Overlapping(from, to, func(r FlowRecord) { got = append(got, r) })
		sameRecords(t, "Overlapping", got, naiveOverlapping(recs, from, to))
	}
}

// Slice must return the same records as the naive [from, to) filter
// over the canonically sorted records, in the same order, for every
// window.
func TestWindowViewMatchesRecordView(t *testing.T) {
	top := testTopology(t)
	horizon := netsim.Time(10 * time.Minute)
	recs := randomRecords(t, top, 5000, horizon)
	wv := NewWindowView()
	feedWindow(t, wv, recs, horizon*2)

	for _, win := range queryWindows(horizon) {
		from, to := win[0], win[1]
		sameRecords(t, "Slice", wv.Slice(from, to), naiveOverlapping(recs, from, to))
	}
}

// Retirement must actually reclaim memory, and slices over retired or
// undelivered spans must panic — the enforcement half of the
// WindowView contract.
func TestWindowViewRetirementContract(t *testing.T) {
	top := testTopology(t)
	horizon := netsim.Time(10 * time.Minute)
	recs := randomRecords(t, top, 5000, horizon)
	wv := NewWindowView()
	feedWindow(t, wv, recs, horizon)

	before := wv.Buffered()
	mid := horizon / 2
	wv.Retire(mid)
	wv.Compact()
	if wv.Buffered() >= before {
		t.Fatalf("compaction did not shrink buffer: %d -> %d", before, wv.Buffered())
	}
	if wv.Retired() == 0 {
		t.Fatal("no records reported retired")
	}

	// Windows at or above the watermark still work and match a full scan.
	var got []FlowRecord
	wv.Overlapping(mid, horizon, func(r FlowRecord) { got = append(got, r) })
	sameRecords(t, "post-retirement window", got, naiveOverlapping(recs, mid, horizon))

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("slice below retirement watermark", func() { wv.Slice(mid-1, horizon) })
	mustPanic("slice beyond delivery watermark", func() { wv.Slice(mid, horizon+1) })
}

// Appending out of canonical order must be rejected.
func TestWindowViewRejectsOutOfOrder(t *testing.T) {
	wv := NewWindowView()
	a := FlowRecord{ID: 2, Start: netsim.Time(100), End: netsim.Time(200)}
	b := FlowRecord{ID: 1, Start: netsim.Time(50), End: netsim.Time(60)}
	if err := wv.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := wv.Append(b); err == nil {
		t.Fatal("earlier Start accepted after later one")
	}
	dup := FlowRecord{ID: 2, Start: netsim.Time(100), End: netsim.Time(300)}
	if err := wv.Append(dup); err == nil {
		t.Fatal("duplicate (Start, ID) accepted")
	}
}

// Long-lived records must survive compaction as long as any future
// window can reach them, and instantaneous records exactly at the
// watermark stay visible.
func TestWindowViewCompactKeepsReachable(t *testing.T) {
	wv := NewWindowView()
	long := FlowRecord{ID: 1, Start: 0, End: netsim.Time(time.Hour)}
	inst := FlowRecord{ID: 2, Start: netsim.Time(time.Minute), End: netsim.Time(time.Minute)}
	gone := FlowRecord{ID: 3, Start: netsim.Time(2 * time.Second), End: netsim.Time(30 * time.Second)}
	for _, r := range []FlowRecord{long, gone, inst} {
		if err := wv.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wv.Seal(netsim.Time(2 * time.Hour))
	wv.Retire(netsim.Time(time.Minute))
	wv.Compact()
	if wv.Buffered() != 2 {
		t.Fatalf("buffered %d after compaction, want 2 (long + boundary-instantaneous)", wv.Buffered())
	}
	got := wv.Slice(netsim.Time(time.Minute), netsim.Time(2*time.Minute))
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("post-compaction slice wrong: %+v", got)
	}
}
