// Quickstart: estimate the cardinality of a simulated RFID deployment with
// BFCE and inspect what the protocol did.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"rfidest"
)

func main() {
	ctx := context.Background()
	// A deployment of half a million tags with uniformly distributed
	// tagIDs — the headline scenario of the paper (§III-B).
	sys := rfidest.NewSystem(500000, rfidest.WithSeed(2015))

	// One BFCE run to the (0.05, 0.05) requirement: the estimate must be
	// within ±5% of the truth with probability at least 95%.
	est, err := sys.Run(ctx, rfidest.WithAccuracy(0.05, 0.05))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true n = %d\n", sys.N())
	fmt.Printf("BFCE   = %.0f  (error %.2f%%)\n", est.N, 100*abs(est.N-float64(sys.N()))/float64(sys.N()))
	fmt.Printf("air time = %.4f s (constant-time budget: %.4f s)\n",
		est.Seconds, rfidest.ConstantTimeBudget())
	fmt.Printf("cost: %d tag bit-slots + %d reader bits, guaranteed: %v\n",
		est.Slots, est.ReaderBits, est.Guarded)

	// The same estimation with full phase diagnostics: the probe that
	// found a valid persistence probability, the 1024-slot rough phase,
	// and the optimal persistence of the final 8192-slot frame.
	det, err := sys.RunBFCEDetail(ctx, rfidest.WithAccuracy(0.05, 0.05))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nphase diagnostics of a second run:\n")
	fmt.Printf("  probe:    settled on p_s = %d/1024 after %d adjustments\n", det.ProbePn, det.ProbeRounds)
	fmt.Printf("  rough:    n̂_r = %.0f → lower bound n̂_low = %.0f (c = 0.5)\n", det.Rough, det.LowerBound)
	fmt.Printf("  accurate: minimal feasible p_o = %d/1024 (Theorem 3 feasible: %v)\n", det.OptimalPn, det.Feasible)
	fmt.Printf("  final:    n̂ = %.0f\n", det.Estimate.N)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
