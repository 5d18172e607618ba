// Package flows implements the microscopic flow-level analyses of §4.3:
// flow reconstruction with an inactivity timeout, duration distributions
// weighted by flows and by bytes (Figure 9), rate distributions
// (Figure 7), and inter-arrival distributions at cluster, ToR and server
// scope (Figure 11).
package flows

import (
	"sort"
	"time"

	"dctraffic/internal/det"
	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// DefaultInactivityTimeout is the paper's flow boundary: when explicit
// begins and ends are unavailable, a five-tuple quiet for this long ends
// the flow.
const DefaultInactivityTimeout = 60 * time.Second

// fiveTuple keys a flow. The protocol is constant (TCP) in this model.
type fiveTuple struct {
	src, dst         topology.ServerID
	srcPort, dstPort uint16
}

// Reassemble applies the inactivity-timeout methodology (§3) to a record
// stream: records sharing a five-tuple whose gap is shorter than timeout
// merge into one flow; a longer silence starts a new flow. Pass
// timeout <= 0 for DefaultInactivityTimeout. The input is not modified;
// output is ordered by start time.
func Reassemble(records []trace.FlowRecord, timeout netsim.Time) []trace.FlowRecord {
	if timeout <= 0 {
		timeout = DefaultInactivityTimeout
	}
	byTuple := make(map[fiveTuple][]trace.FlowRecord)
	for _, r := range records {
		k := fiveTuple{r.Src, r.Dst, r.SrcPort, r.DstPort}
		byTuple[k] = append(byTuple[k], r)
	}
	var out []trace.FlowRecord
	for _, rs := range byTuple {
		// (Start, ID) order — the canonical trace order — so batch and
		// streaming reassembly see identical per-tuple sequences even
		// when records of one tuple tie on Start.
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Start != rs[j].Start {
				return rs[i].Start < rs[j].Start
			}
			return rs[i].ID < rs[j].ID
		})
		cur := rs[0]
		for _, r := range rs[1:] {
			if r.Start-cur.End < timeout {
				// Same flow continues.
				cur.Bytes += r.Bytes
				if r.End > cur.End {
					cur.End = r.End
				}
				continue
			}
			out = append(out, cur)
			cur = r
		}
		out = append(out, cur)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// DurationCDFs builds Figure 9: the CDF of flow durations (seconds)
// counted per flow and weighted by bytes.
func DurationCDFs(records []trace.FlowRecord) (byFlows, byBytes *stats.CDF) {
	byFlows, byBytes = &stats.CDF{}, &stats.CDF{}
	byFlows.Grow(len(records))
	byBytes.Grow(len(records))
	for _, r := range records {
		d := r.Duration().Seconds()
		byFlows.Add(d)
		byBytes.AddWeighted(d, float64(r.Bytes))
	}
	return byFlows, byBytes
}

// SizeCDF builds the flow-size distribution (bytes). The paper's
// conclusion notes the absence of "super large flows": sizes are bounded
// by the block store's chunking, so the tail ends near the extent size
// rather than stretching into wide-area-style elephants.
func SizeCDF(records []trace.FlowRecord) *stats.CDF {
	c := &stats.CDF{}
	c.Grow(len(records))
	for _, r := range records {
		c.Add(float64(r.Bytes))
	}
	return c
}

// MaxFlowBytes reports the largest single flow observed.
func MaxFlowBytes(records []trace.FlowRecord) int64 {
	var max int64
	for _, r := range records {
		if r.Bytes > max {
			max = r.Bytes
		}
	}
	return max
}

// RateCDF builds the flow-rate distribution (Mbps) of Figure 7. Records
// with zero duration are skipped (no meaningful rate).
func RateCDF(records []trace.FlowRecord) *stats.CDF {
	c := &stats.CDF{}
	c.Grow(len(records))
	for _, r := range records {
		if rate := r.AvgRateBps(); rate > 0 {
			c.Add(rate / 1e6)
		}
	}
	return c
}

// interArrivalsOf computes successive gaps (milliseconds) of a sorted
// start-time sequence.
func interArrivalsOf(starts []netsim.Time) []float64 {
	if len(starts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		out = append(out, float64(starts[i]-starts[i-1])/float64(time.Millisecond))
	}
	return out
}

// ClusterInterArrivals returns the gaps (ms) between successive flow
// arrivals anywhere in the cluster — Figure 11's "all flows" curve.
func ClusterInterArrivals(records []trace.FlowRecord) []float64 {
	starts := make([]netsim.Time, len(records))
	for i, r := range records {
		starts[i] = r.Start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return interArrivalsOf(starts)
}

// ServerInterArrivals returns gaps (ms) between successive flows from/to
// each cluster server, pooled over servers — Figure 11's server curve.
func ServerInterArrivals(records []trace.FlowRecord, top *topology.Topology) []float64 {
	perServer := make(map[topology.ServerID][]netsim.Time)
	add := func(s topology.ServerID, t netsim.Time) {
		if !top.IsExternal(s) {
			perServer[s] = append(perServer[s], t)
		}
	}
	for _, r := range records {
		add(r.Src, r.Start)
		if r.Dst != r.Src {
			add(r.Dst, r.Start)
		}
	}
	// Pool per-server gap lists in server order so the slice (and every
	// digest downstream of it) does not inherit map iteration order.
	var out []float64
	for _, s := range det.SortedKeys(perServer) {
		starts := perServer[s]
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		out = append(out, interArrivalsOf(starts)...)
	}
	return out
}

// TorInterArrivals returns gaps (ms) between successive flows traversing
// each ToR switch (flows with at least one endpoint in the rack), pooled
// over ToRs — Figure 11's ToR curve.
func TorInterArrivals(records []trace.FlowRecord, top *topology.Topology) []float64 {
	perTor := make(map[topology.RackID][]netsim.Time)
	for _, r := range records {
		rs, rd := top.Rack(r.Src), top.Rack(r.Dst)
		if rs >= 0 {
			perTor[rs] = append(perTor[rs], r.Start)
		}
		if rd >= 0 && rd != rs {
			perTor[rd] = append(perTor[rd], r.Start)
		}
	}
	// Same fixed pooling order as ServerInterArrivals, per ToR.
	var out []float64
	for _, tor := range det.SortedKeys(perTor) {
		starts := perTor[tor]
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		out = append(out, interArrivalsOf(starts)...)
	}
	return out
}

// ArrivalRatePerSec reports the mean cluster-wide flow arrival rate over
// [0, horizon).
func ArrivalRatePerSec(records []trace.FlowRecord, horizon netsim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	n := 0
	for _, r := range records {
		if r.Start < horizon {
			n++
		}
	}
	return float64(n) / horizon.Seconds()
}

// Summary condenses the §4.3 headline numbers for a record set.
type Summary struct {
	NumFlows int
	// FracShorterThan10s / 200s: duration CDF probes (paper: >80% <10 s,
	// <0.1% >200 s).
	FracShorterThan10s float64
	FracLongerThan200s float64
	// BytesInFlowsUnder25s: fraction of bytes carried by flows <= 25 s
	// (paper: more than half).
	BytesInFlowsUnder25s float64
	MedianDurationSec    float64
	MedianRateMbps       float64
	ArrivalRatePerSec    float64
}

// Summarize computes the Summary over [0, horizon).
func Summarize(records []trace.FlowRecord, horizon netsim.Time) Summary {
	byFlows, byBytes := DurationCDFs(records)
	rates := RateCDF(records)
	return Summary{
		NumFlows:             len(records),
		FracShorterThan10s:   byFlows.P(10),
		FracLongerThan200s:   1 - byFlows.P(200),
		BytesInFlowsUnder25s: byBytes.P(25),
		MedianDurationSec:    byFlows.Quantile(0.5),
		MedianRateMbps:       rates.Quantile(0.5),
		ArrivalRatePerSec:    ArrivalRatePerSec(records, horizon),
	}
}

// ConcurrentSeries counts the flows active in each bin of [0, horizon) —
// the "statistics on concurrent flows" companion measurements report.
// A flow is active in a bin if its lifetime intersects it.
func ConcurrentSeries(records []trace.FlowRecord, bin, horizon netsim.Time) []int {
	if bin <= 0 || horizon <= 0 {
		return nil
	}
	n := int((horizon + bin - 1) / bin)
	out := make([]int, n)
	// Sweep: +1 at start bin, -1 after end bin, prefix-sum.
	diff := make([]int, n+1)
	for _, r := range records {
		lo := int(r.Start / bin)
		hi := int(r.End / bin)
		if r.End > r.Start && r.End%bin == 0 {
			hi-- // half-open end exactly on a boundary
		}
		if lo >= n || hi < 0 {
			continue
		}
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		diff[lo]++
		diff[hi+1]--
	}
	cur := 0
	for i := 0; i < n; i++ {
		cur += diff[i]
		out[i] = cur
	}
	return out
}

// ModeSpacing estimates the dominant periodic spacing (ms) in an
// inter-arrival sample by histogramming gaps in [loMs, capMs) and
// returning the most populated bin's center — used to verify the ~15 ms
// stop-and-go modes of Figure 11. Pass loMs of a couple of milliseconds
// to skip the batch of near-simultaneous flows a single application event
// emits (connection setup, parallel pulls), which is a separate
// phenomenon from the pacing-timer modes.
func ModeSpacing(gapsMs []float64, loMs, capMs float64, bins int) float64 {
	if len(gapsMs) == 0 || bins <= 0 || capMs <= loMs {
		return 0
	}
	h := stats.NewHistogram(loMs, capMs, bins)
	for _, g := range gapsMs {
		h.Add(g)
	}
	return histogramMode(h)
}
