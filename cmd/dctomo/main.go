// Command dctomo runs the §5 tomography evaluation: simulate a cluster,
// compute ground-truth ToR-to-ToR traffic matrices, derive the link
// counters they would produce, estimate TMs with tomogravity (plain and
// job-prior-augmented) and sparsity maximization, and print per-TM errors
// — the data behind Figures 12, 13 and 14.
//
// Usage:
//
//	dctomo -racks 8 -servers 10 -duration 2h -bin 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"dctraffic"
	"dctraffic/internal/snmp"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
)

func main() {
	racks := flag.Int("racks", 8, "number of racks")
	servers := flag.Int("servers", 10, "servers per rack")
	duration := flag.Duration("duration", 2*time.Hour, "instrumented window")
	bin := flag.Duration("bin", 10*time.Minute, "TM averaging window (paper: 10m)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	alpha := flag.Float64("alpha", 4, "job-prior multiplier strength")
	useSNMP := flag.Bool("snmp", false, "derive link counts from simulated 5-minute SNMP polls instead of exact per-window counters")
	flag.Parse()

	cfg := dctraffic.SmallRun()
	cfg.Topology.Racks = *racks
	cfg.Topology.ServersPerRack = *servers
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.Sched.Seed = *seed
	cfg.Sched.JobsPerHour = 150 * float64(*racks**servers) / 80
	rr, err := dctraffic.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dctomo:", err)
		os.Exit(1)
	}

	problem := tomo.NewProblem(rr.Top)
	fmt.Printf("constraints: %d link counters over %d OD pairs (under-constrained by design)\n\n",
		problem.NumConstraints(), problem.NumPairs())
	series := tm.TorSeries(rr.Records(), rr.Top, *bin, *duration)

	// With -snmp, counters come from the polled path: cumulative values
	// every 5 minutes with jitter, reconstructed per window — including
	// the traffic the ToR TM excludes (externals), as a real NMS would see.
	var polled []snmp.Series
	if *useSNMP {
		polled = snmp.Collect(rr.Net.Stats(), rr.Top.InterSwitchLinks(), *duration,
			snmp.Config{Interval: 5 * time.Minute, JitterFrac: 0.05}, dctraffic.NewRNG(*seed).Fork("snmp"))
		fmt.Println("link counts from simulated SNMP polls (5m interval, 5% jitter)")
	}

	fmt.Println("  TM     truth-sparsity   tomogravity   +jobs   sparsity-max   SM-nonzeros")
	var eTG, eTJ, eSM []float64
	for i, truth := range series {
		if truth.Total() <= 0 {
			continue
		}
		b := problem.LinkCounts(truth)
		if *useSNMP {
			from := dctraffic.Time(i) * dctraffic.Time(*bin)
			counts, _ := snmp.WindowCounts(polled, from, from+dctraffic.Time(*bin), 64)
			b = counts
		}
		xTrue := problem.VecFromTM(truth)
		// Estimators fail independently: on SNMP-derived counts the exact
		// polytope {Ax=b, x>=0} can be infeasible (polled counters include
		// ingest/egress bytes the ToR-to-ToR model cannot explain), which
		// kills the sparsity-max LP while the least-squares methods still
		// produce estimates — a real operational difference.
		e1, e2, e3 := math.NaN(), math.NaN(), math.NaN()
		smNonZero := -1
		if tg, err := problem.Tomogravity(b); err == nil {
			e1 = tomo.RMSRE(xTrue, tg, 0.75)
			eTG = append(eTG, e1)
		}
		from := dctraffic.Time(i) * (*bin)
		mult := tomo.JobMultiplier(rr.Log, rr.Top, from, from+dctraffic.Time(*bin), *alpha)
		if tj, err := problem.TomogravityWithMultiplier(b, mult); err == nil {
			e2 = tomo.RMSRE(xTrue, tj, 0.75)
			eTJ = append(eTJ, e2)
		}
		if sm, err := problem.SparsityMax(b); err == nil {
			e3 = tomo.RMSRE(xTrue, sm, 0.75)
			eSM = append(eSM, e3)
			smNonZero = tomo.NonZeroCount(sm)
		}
		_, fracTrue := tomo.SparsityOfVec(xTrue, 0.75)
		fmt.Printf("  %3d    %6.3f           %6.2f      %6.2f      %6.2f       %4d\n",
			i, fracTrue, e1, e2, e3, smNonZero)
	}
	if len(eTG) == 0 {
		fmt.Println("no non-empty TMs — lengthen the run")
		return
	}
	fmt.Printf("\nmedians  (paper: tomogravity 0.60, range 0.35-1.84; job prior marginal; sparsity-max worse)\n")
	fmt.Printf("  tomogravity:  %.2f over %d TMs\n", stats.Median(eTG), len(eTG))
	fmt.Printf("  +job prior:   %.2f over %d TMs\n", stats.Median(eTJ), len(eTJ))
	fmt.Printf("  sparsity-max: %.2f over %d TMs (fails when polled counters are infeasible)\n", stats.Median(eSM), len(eSM))
}
