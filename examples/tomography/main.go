// Tomography study (Figures 12–14): can SNMP-style link counters replace
// socket-level instrumentation in a datacenter? This example walks one TM
// through the whole §5 methodology — ground truth → link counts →
// estimates → errors — then aggregates over a run, showing why the
// gravity prior (built for ISP traffic) struggles with sparse,
// job-clustered datacenter TMs.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dctraffic"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
)

func main() {
	cfg := dctraffic.SmallRun()
	cfg.Duration = 2 * time.Hour
	fmt.Printf("simulating %v...\n", cfg.Duration)
	rr, err := dctraffic.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	problem := tomo.NewProblem(rr.Top)
	fmt.Printf("\nThe inference problem: %d unknowns (ToR pairs), %d link counters.\n",
		problem.NumPairs(), problem.NumConstraints())
	fmt.Println("Tree topologies give tomography its worst case: few constraints, many unknowns.")

	// Walk one 10-minute TM in detail.
	bin := 10 * time.Minute
	series := tm.TorSeries(rr.Records(), rr.Top, bin, cfg.Duration)
	var truth *tm.Matrix
	idx := 0
	for i, m := range series {
		if m.Total() > 0 {
			truth, idx = m, i
			break
		}
	}
	if truth == nil {
		log.Fatal("no traffic in any window")
	}
	xTrue := problem.VecFromTM(truth)
	b := problem.LinkCounts(truth)
	fmt.Printf("\n== one 10-minute TM (window %d) ==\n", idx)
	nzTrue := tomo.NonZeroCount(xTrue)
	fmt.Printf("ground truth: %.2f GB over %d of %d pairs (sparse!)\n",
		truth.Total()/1e9, nzTrue, problem.NumPairs())

	tg, err := problem.Tomogravity(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tomogravity:   RMSRE %.2f, %d non-zero entries (dense: gravity spreads traffic)\n",
		tomo.RMSRE(xTrue, tg, 0.75), tomo.NonZeroCount(tg))

	from := dctraffic.Time(idx) * dctraffic.Time(bin)
	mult := tomo.JobMultiplier(rr.Log, rr.Top, from, from+dctraffic.Time(bin), 4)
	tj, err := problem.TomogravityWithMultiplier(b, mult)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("+ job prior:   RMSRE %.2f (marginally different: roles shift within a job)\n",
		tomo.RMSRE(xTrue, tj, 0.75))

	sm, err := problem.SparsityMax(b)
	if err != nil {
		log.Fatal(err)
	}
	hits := tomo.HeavyHitterOverlap(xTrue, sm, 97)
	fmt.Printf("sparsity-max:  RMSRE %.2f, %d non-zeros, only %d on true heavy hitters\n",
		tomo.RMSRE(xTrue, sm, 0.75), tomo.NonZeroCount(sm), hits)

	// Aggregate over the run.
	var eTG, eSM []float64
	for _, m := range series {
		if m.Total() <= 0 {
			continue
		}
		bb := problem.LinkCounts(m)
		xt := problem.VecFromTM(m)
		if est, err := problem.Tomogravity(bb); err == nil {
			eTG = append(eTG, tomo.RMSRE(xt, est, 0.75))
		}
		if est, err := problem.SparsityMax(bb); err == nil {
			eSM = append(eSM, tomo.RMSRE(xt, est, 0.75))
		}
	}
	fmt.Printf("\n== aggregate over %d TMs ==\n", len(eTG))
	fmt.Printf("tomogravity median RMSRE:  %.2f (paper: 0.60 over a day of 10-min TMs)\n", stats.Median(eTG))
	fmt.Printf("sparsity-max median RMSRE: %.2f (paper: worse than tomogravity)\n", stats.Median(eSM))
	fmt.Println("\nConclusion (§5): familiar ISP tomography transfers poorly to datacenters;")
	fmt.Println("detailed server-side instrumentation earns its keep.")
}
