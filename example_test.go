package dctraffic_test

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dctraffic"
)

// Simulate a small cluster and check the headline flow statistic of §4.3:
// the vast majority of flows are short.
func Example() {
	cfg := dctraffic.SmallRun()
	cfg.Duration = 15 * time.Minute
	cfg.DrainTime = 5 * time.Minute
	rr, err := dctraffic.Run(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	rep, err := dctraffic.AnalyzeRun(context.Background(), rr)
	if err != nil {
		panic(err)
	}
	fmt.Println("most flows under 10s:", rep.Fig9.Summary.FracShorterThan10s > 0.8)
	fmt.Println("connection cap:", rep.Incast.MaxSimultaneousConnections)
	// Output:
	// most flows under 10s: true
	// connection cap: 2
}

// Generate synthetic datacenter traffic with the §4.1 empirical model —
// no cluster simulation needed.
func ExamplePaperModelFor() {
	params := dctraffic.PaperModelFor(dctraffic.ClusterShape{
		Racks: 75, ServersPerRack: 20, ExternalHosts: 30, // the paper's cluster shape
	})
	rng := dctraffic.NewRNG(1)
	m := params.GenerateTM(rng)
	fmt.Println("endpoints:", m.N())
	fmt.Println("has traffic:", m.Total() > 0)
	// Most server pairs exchange nothing (the paper's sparsity).
	possible := 1500 * 1499
	fmt.Println("sparse:", m.NonZero() < possible/10)
	// Output:
	// endpoints: 1530
	// has traffic: true
	// sparse: true
}

// Generate a correlated sequence of traffic-matrix windows: consecutive
// windows share conversations, as real job traffic does (Figure 10).
func ExampleModelParams_NewSeriesGen() {
	params := dctraffic.PaperModelFor(dctraffic.ClusterShape{Racks: 8, ServersPerRack: 10, ExternalHosts: 4})
	gen := params.NewSeriesGen(dctraffic.NewRNG(7))
	w0 := gen.Next()
	w1 := gen.Next()
	fmt.Println("both windows alive:", w0.NonZero() > 0 && w1.NonZero() > 0)
	// Output:
	// both windows alive: true
}

// Round-trip a trace through the JSONL format used by cmd/dcsim.
func ExampleWriteTrace() {
	records := []dctraffic.FlowRecord{
		{ID: 1, Src: 0, Dst: 15, Bytes: 1 << 20, Start: 0, End: time.Second},
	}
	var buf bytes.Buffer
	if err := dctraffic.WriteTrace(&buf, records); err != nil {
		panic(err)
	}
	back, err := dctraffic.ReadTrace(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("records:", len(back), "bytes:", back[0].Bytes)
	// Output:
	// records: 1 bytes: 1048576
}
