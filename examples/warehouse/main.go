// Warehouse: daily stock monitoring with constant-time cardinality
// estimation — the inventory-management use case that motivates the paper
// (§I: "inventory management", "the number of tags in the range may easily
// exceed tens of thousands").
//
// A warehouse portal reader estimates the tagged stock level once per day.
// Stock drifts as pallets arrive and ship; the monitor must flag any day
// the stock moves more than 10% from the plan, while spending a fixed,
// predictable slice of the reader's airtime budget — which is exactly what
// BFCE's constant 0.19 s per estimate buys.
//
//	go run ./examples/warehouse
package main

import (
	"context"
	"fmt"
	"log"

	"rfidest"
)

func main() {
	const planned = 120000 // stock level the site is planned to hold

	// Two weeks of simulated stock levels: receipts and shipments drift
	// the true count; day 9 has an unreported bulk shipment (an anomaly
	// the monitor should catch).
	stock := []int{
		120000, 121500, 119800, 123900, 125100,
		124200, 126800, 128000, 127400, 104300, // ← day 10: bulk shipment left unrecorded
		105900, 107200, 106500, 108800,
	}

	fmt.Println("day   true     estimate   err%    air-time  alert")
	fmt.Println("---------------------------------------------------")
	totalAir := 0.0
	for day, n := range stock {
		// Each day is a fresh physical population behind the same portal.
		sys := rfidest.NewSystem(n,
			rfidest.WithSeed(uint64(1000+day)),
			rfidest.WithDistribution(rfidest.ApproxNormal))
		est, err := sys.Run(context.Background(), rfidest.WithAccuracy(0.05, 0.05))
		if err != nil {
			log.Fatal(err)
		}
		totalAir += est.Seconds

		drift := (est.N - planned) / planned
		alert := ""
		if drift > 0.10 || drift < -0.10 {
			alert = fmt.Sprintf("STOCK DRIFT %+.1f%%", 100*drift)
		}
		errPct := 100 * abs(est.N-float64(n)) / float64(n)
		fmt.Printf("%3d   %6d   %8.0f   %.2f%%   %.4fs   %s\n",
			day+1, n, est.N, errPct, est.Seconds, alert)
	}
	fmt.Printf("\ntotal reader airtime for %d daily checks: %.2f s (%.4f s/check — constant)\n",
		len(stock), totalAir, totalAir/float64(len(stock)))
	fmt.Println("an exact inventory of 120k tags would take minutes per day; the estimate takes 0.19 s")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
