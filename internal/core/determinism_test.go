package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// traceDigest runs a shortened SmallRun simulation and hashes
// everything determinism covers: every reassembled flow record in the
// trace plus the full analysis report.
func traceDigest(t *testing.T) string {
	t.Helper()
	cfg := SmallRun()
	cfg.Duration = 20 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	rr, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range rr.Records() {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %v\n",
			r.ID, r.Src, r.Dst, r.SrcPort, r.DstPort, r.Start, r.End, r.Bytes, r.Tag)
	}
	j, err := mustAnalyze(t, rr).JSON()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(j)
	return hex.EncodeToString(h.Sum(nil))
}

// The determinism invariant must hold across parallelism settings, not
// just across repeated runs: the simulator is specified to be a pure
// function of its seed, so GOMAXPROCS=1 and GOMAXPROCS=NumCPU must
// produce byte-identical trace digests. This is the regression guard
// for anyone introducing scheduler-ordered work (dctlint's floatsum
// analyzer is the static half of the same contract).
func TestCrossGOMAXPROCSDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full shortened simulations")
	}
	prev := runtime.GOMAXPROCS(1)
	serial := traceDigest(t)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := traceDigest(t)
	runtime.GOMAXPROCS(prev)
	if serial != parallel {
		t.Fatalf("trace digest differs across GOMAXPROCS:\n  GOMAXPROCS=1:      %s\n  GOMAXPROCS=NumCPU: %s", serial, parallel)
	}
}
