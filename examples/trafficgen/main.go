// Traffic-model round trip (§4.1): the paper proposes that Figures 2–4
// "comprise a model that can be used in simulating such traffic". This
// example demonstrates the full loop a network designer would use:
//
//  1. measure — simulate the cluster and capture a server-level TM;
//  2. fit — estimate the empirical model's parameters from that TM;
//  3. generate — draw synthetic TMs from the fitted model (no cluster
//     simulation needed; microseconds per TM);
//  4. validate — check the synthetic TMs preserve the measured structure.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dctraffic"
	"dctraffic/internal/tm"
)

func main() {
	// 1. Measure.
	cfg := dctraffic.SmallRun()
	cfg.Duration = time.Hour
	fmt.Println("step 1: measuring (1h cluster simulation)...")
	rr, err := dctraffic.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	window := dctraffic.Time(100 * time.Second)
	mid := cfg.Duration / 2
	measured := dctraffic.ServerMatrix(rr.Records(), rr.Top.NumHosts(), mid, mid+window)
	show := func(name string, m *dctraffic.Matrix) {
		es := tm.ComputeEntryStats(m, rr.Top)
		cs := tm.ComputeCorrespondents(m, rr.Top)
		ps := tm.SummarizePatterns(m, rr.Top)
		fmt.Printf("  %-10s total=%6.2f GB  P(zero|rack)=%.3f  P(zero|cross)=%.4f  corr=%.0f/%.0f  rackShare=%.2f\n",
			name, m.Total()/1e9, es.PZeroWithinRack, es.PZeroAcrossRack,
			cs.MedianWithinCount, cs.MedianAcrossCount, ps.WithinRackFraction)
	}
	fmt.Println("\nmeasured window statistics:")
	show("measured", measured)

	// 2. Fit.
	fmt.Println("\nstep 2: fitting the §4.1 model to the measured TM...")
	params := dctraffic.FitModel(measured, rr.Top, window)
	fmt.Printf("  fitted: P(chatty)=%.2f quietFrac=%.3f P(silent-across)=%.2f within μ=%.1f σ=%.1f\n",
		params.PChattyWithinRack, params.QuietWithinFrac, params.PSilentAcrossRack,
		params.WithinBytes.Mu, params.WithinBytes.Sigma)

	// 3. Generate.
	fmt.Println("\nstep 3: generating 3 synthetic windows from the fitted model...")
	rng := dctraffic.NewRNG(7)
	for i := 0; i < 3; i++ {
		synth := params.GenerateTM(rng)
		show(fmt.Sprintf("synthetic%d", i), synth)
	}

	// 4. Decompose one synthetic TM into flows for a packet/flow-level
	// simulator.
	synth := params.GenerateTM(rng)
	recs := params.GenerateFlows(rng, synth, dctraffic.DefaultFlowShape(), 0, 1)
	fmt.Printf("\nstep 4: decomposed a synthetic TM into %d flow records\n", len(recs))
	fmt.Println("\nsynthetic heat map:")
	fmt.Print(dctraffic.HeatASCII(synth, 60))
}
