// Traffic-engineering study (§4.3 implications): the paper argues that
// per-flow centralized scheduling is infeasible at datacenter flow
// arrival rates, and that scheduling application units or making simple
// random choices is the practical alternative. This example measures the
// trade-off: it simulates the cluster, replays the cross-rack flows over
// a VL2-style multipath fabric, and compares path selectors on load
// balance and required decision throughput — including a centralized
// scheduler handicapped by realistic decision latency.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dctraffic"
	"dctraffic/internal/te"
)

func main() {
	cfg := dctraffic.SmallRun()
	cfg.Duration = time.Hour
	fmt.Printf("simulating %v of cluster workload...\n", cfg.Duration)
	rr, err := dctraffic.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	flows := te.FlowsFromRecords(rr.Records(), rr.Top)
	fmt.Printf("replaying %d cross-rack flows over a multipath fabric\n\n", len(flows))

	fabric, err := te.NewFabric(rr.Top.NumRacks(), 4, 10e9)
	if err != nil {
		log.Fatal(err)
	}
	results := te.Compare(fabric, flows, 1, time.Second, cfg.Duration,
		10*time.Millisecond, 100*time.Millisecond, time.Second)

	fmt.Printf("%-22s %12s %12s %12s %14s\n",
		"selector", "max util", "p99 util", "imbalance", "decisions/s")
	for _, r := range results {
		fmt.Printf("%-22s %12.3f %12.3f %12.2f %14.1f\n",
			r.Selector, r.MaxUtilization, r.P99Utilization, r.Imbalance, r.DecisionsPerSec)
	}

	fmt.Println("\nReading the table:")
	fmt.Println(" - 'random' needs zero coordination and stays close to the omniscient")
	fmt.Println("   'least-loaded' — the paper's \"simple random choices\" argument;")
	fmt.Println(" - 'per-job' gets similar balance with orders of magnitude fewer")
	fmt.Println("   decisions — \"scheduling application units rather than flows\";")
	fmt.Println(" - 'least-loaded+latency' shows the centralized scheduler degrading as")
	fmt.Println("   decision lag grows toward typical flow lifetimes.")
	fmt.Printf("\nAt the paper's scale the cluster sees ~10⁵ flows/s — this replay's\n")
	fmt.Printf("per-flow selectors would need %0.f decisions/s scaled ×19.\n",
		results[0].DecisionsPerSec)
}
