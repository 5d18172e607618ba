package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// Max-min allocation invariants, checked after a recompute:
//  1. feasibility — no link carries more than its capacity;
//  2. bottleneck property — every fabric flow crosses at least one
//     saturated link on which it has a maximal rate. Together these
//     certify the allocation is the (unique) max-min fair one.
func checkMaxMinInvariants(t *testing.T, n *Network) {
	t.Helper()
	const rel = 1e-9
	top := n.Top()
	for _, l := range top.Links() {
		if n.LinkRateBps(l.ID) > l.CapacityBps*(1+rel)+1 {
			t.Fatalf("link %s over capacity: %v > %v", l.Name, n.LinkRateBps(l.ID), l.CapacityBps)
		}
	}
	// Maximal rate per link among the flows crossing it.
	maxRate := make(map[topology.LinkID]float64)
	for _, f := range n.active {
		for _, l := range f.path {
			if f.rate > maxRate[l] {
				maxRate[l] = f.rate
			}
		}
	}
	for _, f := range n.active {
		if len(f.path) == 0 {
			continue // loopback: pinned at LocalBps, not allocated
		}
		bottlenecked := false
		for _, l := range f.path {
			saturated := n.linkRateB[l] >= n.linkCapB[l]*(1-1e-9)-1
			maximal := f.rate >= maxRate[l]*(1-1e-9)
			if saturated && maximal {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("%v (rate %v) has no bottleneck link", f, f.Rate())
		}
	}
}

// Property: after arbitrary arrivals the incremental allocator satisfies
// the max-min invariants.
func TestMaxMinInvariantsProperty(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := New(top, Options{})
		nf := 1 + r.IntN(60)
		for i := 0; i < nf; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			n.StartFlow(src, dst, 1<<40, FlowTag{}, nil)
		}
		n.Run(0) // compute rates only
		checkMaxMinInvariants(t, n)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Invariants must also hold mid-run, after completions and cancels have
// reshaped the active set through many dirty-component recomputes.
func TestMaxMinInvariantsAfterChurn(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	r := stats.NewRNG(7)
	n := New(top, Options{})
	var cancelable []*Flow
	for i := 0; i < 300; i++ {
		src := topology.ServerID(r.IntN(top.NumHosts()))
		dst := topology.ServerID(r.IntN(top.NumHosts()))
		bytes := int64(1_000_000 + r.IntN(100_000_000))
		at := Time(r.IntN(2000)) * time.Millisecond
		n.After(at, func() {
			f := n.StartFlow(src, dst, bytes, FlowTag{}, nil)
			if len(cancelable) < 30 {
				cancelable = append(cancelable, f)
			}
		})
	}
	n.After(1500*time.Millisecond, func() {
		for _, f := range cancelable {
			n.Cancel(f)
		}
	})
	for ms := 500; ms <= 2500; ms += 500 {
		n.After(Time(ms)*time.Millisecond, func() {
			checkMaxMinInvariants(t, n)
		})
	}
	n.RunAll()
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows never finished", n.ActiveFlows())
	}
}

// Property: the incremental dirty-component allocator and a full
// re-solve on every step produce bit-identical simulations — same
// completion times, same per-link byte totals, same total bytes — on
// random workloads with churn, in both exact and batched recompute modes.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	run := func(seed uint64, full bool, batch Time) (float64, []float64, []Time) {
		r := stats.NewRNG(seed)
		n := New(top, Options{FullRecompute: full, MinRecomputeInterval: batch})
		var ends []Time
		nf := 3 + r.IntN(25)
		for i := 0; i < nf; i++ {
			src := topology.ServerID(r.IntN(top.NumHosts()))
			dst := topology.ServerID(r.IntN(top.NumHosts()))
			bytes := int64(1000 + r.IntN(50_000_000))
			start := Time(r.IntN(1000)) * time.Millisecond
			cancelAfter := Time(0)
			if r.IntN(4) == 0 {
				cancelAfter = Time(1+r.IntN(500)) * time.Millisecond
			}
			n.After(start, func() {
				f := n.StartFlow(src, dst, bytes, FlowTag{}, func(f *Flow) {
					ends = append(ends, f.End)
				})
				if cancelAfter > 0 {
					n.After(cancelAfter, func() { n.Cancel(f) })
				}
			})
		}
		n.RunAll()
		linkBytes := make([]float64, top.NumLinks())
		for l := range linkBytes {
			linkBytes[l] = n.LinkTotalBytes(topology.LinkID(l))
		}
		return n.TotalBytes(), linkBytes, ends
	}
	f := func(seed uint64, batched bool) bool {
		var batch Time
		if batched {
			batch = 20 * time.Millisecond
		}
		ib, il, ie := run(seed, false, batch)
		fb, fl, fe := run(seed, true, batch)
		if ib != fb || len(ie) != len(fe) {
			return false
		}
		for i := range ie {
			if ie[i] != fe[i] {
				return false
			}
		}
		for l := range il {
			if il[l] != fl[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}

	// The simulator's stress shapes on top of the random flow sets:
	// closed-loop churn, rack-local pairs and CancelWhere evacuation
	// storms, exact and batched. Trace digests must be bit-identical.
	for seed := uint64(1); seed <= 20; seed++ {
		sc := synthConfig{
			seed:      seed,
			batched:   seed%2 == 0,
			rackLocal: seed%3 != 0,
			evacuate:  seed%4 == 0 || seed >= 16, // ≥ 9 evacuation-heavy variants
		}
		inc, incN := runSynthetic(t, sc, Options{})
		full, fullN := runSynthetic(t, sc, Options{FullRecompute: true})
		if inc != full {
			t.Fatalf("seed %d (batched=%v rackLocal=%v evacuate=%v): incremental digest %s != full %s (%d vs %d flows)",
				seed, sc.batched, sc.rackLocal, sc.evacuate, inc, full, incN, fullN)
		}
	}
}

// digestObserver hashes every flow lifecycle fact determinism covers:
// identity, endpoints, ports, timing, cancellation and the exact float
// bits of the bytes moved. Two runs agree on the digest iff their traces
// are bit-identical.
type digestObserver struct {
	h     [32]byte
	count int
}

func (d *digestObserver) FlowStarted(f *Flow) {}
func (d *digestObserver) FlowEnded(f *Flow) {
	s := fmt.Sprintf("%x|%d %d %d %d %d %d %d %v %016x\n",
		d.h, f.ID, f.Src, f.Dst, f.SrcPort, f.DstPort, f.Start, f.End,
		f.Canceled, math.Float64bits(f.Transferred()))
	d.h = sha256.Sum256([]byte(s))
	d.count++
}

// synthConfig is one randomized small-cluster workload variant.
type synthConfig struct {
	seed      uint64
	batched   bool // 10 ms MinRecomputeInterval (day-scale configuration)
	rackLocal bool // 80% same-rack pairs (work-seeks-bandwidth shape)
	evacuate  bool // periodic CancelWhere storms with bulk restarts
	// top, when set, is the topology to simulate on; nil builds a fresh
	// SmallConfig topology for the run.
	top *topology.Topology
}

// runSynthetic drives a closed-loop random workload: an initial wave of
// flows whose completion callbacks chain replacement flows (so RNG draws
// happen in completion order), plus optional evacuation storms. Returns
// the trace digest and the number of flows ended.
func runSynthetic(t *testing.T, sc synthConfig, opts Options) (string, int) {
	t.Helper()
	top := sc.top
	if top == nil {
		top = topology.MustNew(topology.SmallConfig())
	}
	if sc.batched {
		opts.MinRecomputeInterval = 10 * time.Millisecond
	}
	n := New(top, opts)
	d := &digestObserver{}
	n.AddObserver(d)
	r := stats.NewRNG(sc.seed)
	hosts := top.NumHosts()
	servers := top.NumServers()
	spr := top.Config().ServersPerRack

	pair := func() (topology.ServerID, topology.ServerID) {
		if sc.rackLocal && r.Float64() < 0.8 {
			rack := r.IntN(top.NumRacks())
			src := topology.ServerID(rack*spr + r.IntN(spr))
			dst := topology.ServerID(rack*spr + r.IntN(spr))
			return src, dst
		}
		return topology.ServerID(r.IntN(hosts)), topology.ServerID(r.IntN(hosts))
	}
	var chain func(depth, job int) func(*Flow)
	chain = func(depth, job int) func(*Flow) {
		if depth <= 0 {
			return nil
		}
		return func(f *Flow) {
			if f.Canceled {
				return
			}
			src, dst := pair()
			n.StartFlow(src, dst, int64(1+r.IntN(4_000_000)), FlowTag{Job: job}, chain(depth-1, job))
		}
	}
	const initial = 400
	for i := 0; i < initial; i++ {
		i := i
		n.After(Time(r.IntN(300))*time.Millisecond, func() {
			src, dst := pair()
			n.StartFlow(src, dst, int64(1+r.IntN(6_000_000)), FlowTag{Job: i % 7}, chain(2, i%7))
		})
	}
	if sc.evacuate {
		// Periodic evacuation: reap one job's transfers, then bulk-restart
		// them as evacuation traffic off the victim server.
		for k := 0; k < 8; k++ {
			k := k
			n.After(Time(150+100*k)*time.Millisecond, func() {
				job := k % 7
				n.CancelWhere(func(f *Flow) bool { return f.Tag.Job == job && f.Tag.Kind != KindEvacuate })
				victim := topology.ServerID(r.IntN(servers))
				for i := 0; i < 40; i++ {
					dst := topology.ServerID(r.IntN(servers))
					n.StartFlow(victim, dst, int64(1+r.IntN(2_000_000)),
						FlowTag{Job: job, Kind: KindEvacuate}, chain(1, job))
				}
			})
		}
	}
	n.RunAll()
	if got := d.count; got < initial {
		t.Fatalf("workload too small: %d flows ended", got)
	}
	return hex.EncodeToString(d.h[:]), d.count
}

// Independent networks running in parallel on one shared topology, as
// the fleet executor runs them, must produce exactly the traces they
// produce one after another: a Network keeps no state outside itself
// and only reads the topology. The race detector legs cover the same
// runs for unsynchronized sharing.
func TestParallelMatchesSequential(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	var configs []synthConfig
	for seed := uint64(1); seed <= 8; seed++ {
		configs = append(configs, synthConfig{
			seed:      seed,
			batched:   seed%2 == 0,
			rackLocal: seed%3 != 0,
			evacuate:  seed%4 == 0 || seed >= 6,
			top:       top,
		})
	}
	want := make([]string, len(configs))
	for i, sc := range configs {
		want[i], _ = runSynthetic(t, sc, Options{})
	}
	got := make([]string, len(configs))
	t.Run("concurrent", func(t *testing.T) {
		for i, sc := range configs {
			i, sc := i, sc
			t.Run(fmt.Sprintf("seed%d", sc.seed), func(t *testing.T) {
				t.Parallel()
				got[i], _ = runSynthetic(t, sc, Options{})
			})
		}
	})
	for i, sc := range configs {
		if got[i] != want[i] {
			t.Fatalf("seed %d (batched=%v rackLocal=%v evacuate=%v): concurrent digest %s != sequential %s",
				sc.seed, sc.batched, sc.rackLocal, sc.evacuate, got[i], want[i])
		}
	}
}

// A canceled flow must vanish from the per-link flow lists, and the moved
// flow's back-indices must stay correct through many swap-removals.
func TestLinkFlowListConsistency(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	r := stats.NewRNG(3)
	n := New(top, Options{})
	var flows []*Flow
	for i := 0; i < 200; i++ {
		src := topology.ServerID(r.IntN(top.NumHosts()))
		dst := topology.ServerID(r.IntN(top.NumHosts()))
		flows = append(flows, n.StartFlow(src, dst, 1<<40, FlowTag{}, nil))
	}
	// Cancel half in random order.
	for i := 0; i < 100; i++ {
		n.Cancel(flows[r.IntN(len(flows))])
	}
	// Every remaining active flow must be exactly where linkIdx says,
	// and list membership must match path membership.
	total := 0
	for l, fl := range n.linkFlows {
		total += len(fl)
		for j, f := range fl {
			if !f.Active() {
				t.Fatalf("retired flow %v still on link %d", f, l)
			}
			found := false
			for k, pl := range f.path {
				if int(pl) == l {
					if int(f.linkIdx[k]) != j {
						t.Fatalf("flow %v linkIdx stale: link %d says %d, list has it at %d", f, l, f.linkIdx[k], j)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("flow %v on link %d not in its path", f, l)
			}
		}
	}
	want := 0
	for _, f := range flows {
		if f.Active() {
			want += len(f.path)
		}
	}
	if total != want {
		t.Fatalf("link lists hold %d entries, active paths have %d", total, want)
	}
}
