// What-if study: record a trace on the paper's tree fabric, then replay
// the exact same offered load on candidate fabrics — double ToR uplinks,
// and a VL2-style multipath fabric — comparing flow slowdowns and
// congestion. This is the workflow the paper's measurements enable:
// "network designers can evaluate architecture choices better by knowing
// what drives the traffic."
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dctraffic"
	"dctraffic/internal/congestion"
	"dctraffic/internal/netsim"
	"dctraffic/internal/replay"
	"dctraffic/internal/topology"
)

func main() {
	// 1. Record: simulate the production tree for an hour.
	cfg := dctraffic.SmallRun()
	cfg.Duration = time.Hour
	cfg.DrainTime = 20 * time.Minute
	fmt.Println("recording 1h of workload on the tree fabric...")
	rr, err := dctraffic.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	records := rr.Records()
	baseEps := congestion.Detect(rr.Net.Stats(), rr.Top, 0, rr.Top.InterSwitchLinks())
	fmt.Printf("baseline: %d flows, %d congestion episodes\n\n", len(records), len(baseEps))

	type candidate struct {
		name   string
		mutate func(*topology.Config)
	}
	candidates := []candidate{
		{"tree (baseline, re-run)", func(*topology.Config) {}},
		{"tree, 2x ToR uplinks", func(c *topology.Config) { c.TorUplinkBps *= 2 }},
		{"multipath, 4 aggs", func(c *topology.Config) { c.MultiPath = true; c.AggSwitches = 4 }},
		{"multipath, 4 aggs, 2x uplinks", func(c *topology.Config) {
			c.MultiPath = true
			c.AggSwitches = 4
			c.TorUplinkBps *= 2
		}},
	}
	fmt.Printf("%-32s %10s %10s %12s %14s\n", "fabric", "med slow", "mean slow", "episodes", "long (>=10s)")
	for _, cand := range candidates {
		tc := cfg.Topology
		cand.mutate(&tc)
		top, err := topology.New(tc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := replay.Run(records, top, replay.Options{
			Net: netsim.Options{StatsBinSize: time.Second},
		})
		if err != nil {
			log.Fatal(err)
		}
		eps := congestion.Detect(res.Net.Stats(), top, 0, top.InterSwitchLinks())
		long := 0
		for _, e := range eps {
			if e.Duration() >= 10*time.Second {
				long++
			}
		}
		fmt.Printf("%-32s %10.3f %10.3f %12d %14d\n",
			cand.name,
			replay.MedianSlowdown(records, res.Records),
			replay.MeanSlowdown(records, res.Records),
			len(eps), long)
	}
	fmt.Println("\nslowdown < 1 means the fabric moved the same flows faster;")
	fmt.Println("replay is open-loop, so arrival times are held fixed.")
	fmt.Println()
	fmt.Println("Note the multipath rows: open-loop replay punishes ECMP because the")
	fmt.Println("per-agg links are 4x smaller and the recorded arrivals were shaped by")
	fmt.Println("the tree's backpressure. The closed-loop simulation (see")
	fmt.Println("BenchmarkAblationMultipathFabric), where the workload adapts, shows")
	fmt.Println("multipath removing sustained hot-trunk congestion instead. Open- vs")
	fmt.Println("closed-loop evaluation disagreeing is itself the classic trace-replay")
	fmt.Println("caveat.")
}
