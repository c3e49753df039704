// Multireader: estimate the union cardinality of a deployment covered by
// several overlapping readers. §III-A of the paper: when readers are
// coordinated by a back-end server, "these readers can be logically
// considered as one reader" — the back-end synchronizes frame parameters
// and ORs the busy observations, and tags covered by several readers are
// heard identically by each (their hashes depend only on the tag), so the
// merge is exact even under overlap. No tag replies are deduplicated and
// no "tags answer only one reader" assumption is needed.
//
//	go run ./examples/multireader
package main

import (
	"context"
	"fmt"
	"log"

	"rfidest"
)

func main() {
	ctx := context.Background()

	// A warehouse aisle covered by three portal readers with overlapping
	// zones, as windows of one tag universe:
	//   reader 1: tags [0, 90k)
	//   reader 2: tags [60k, 170k)
	//   reader 3: tags [140k, 240k)
	// Union: 240k distinct tags; overlaps: 30k each.
	const universe = 424242
	r1 := rfidest.PopulationAt(universe, 0, 90000)
	r2 := rfidest.PopulationAt(universe, 60000, 110000)
	r3 := rfidest.PopulationAt(universe, 140000, 100000)

	// Per-reader estimates (each reader alone, its own zone).
	fmt.Println("per-reader zone estimates:")
	total := 0.0
	for i, sys := range []*rfidest.System{r1, r2, r3} {
		est, err := sys.Run(ctx, rfidest.WithAccuracy(0.05, 0.05))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  reader %d: n̂ = %8.0f (true %d)\n", i+1, est.N, sys.N())
		total += est.N
	}
	fmt.Printf("  naive sum of zones: %.0f — overcounts the overlap by ~60k\n\n", total)

	// The logical merged reader estimates the union directly.
	union, err := rfidest.Merge(240000, r1, r2, r3)
	if err != nil {
		log.Fatal(err)
	}
	est, err := union.Run(ctx, rfidest.WithAccuracy(0.05, 0.05))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged logical reader: n̂ = %.0f (true union 240000)\n", est.N)
	fmt.Printf("air time: %.4f s — the same constant frame, broadcast once, heard by all readers\n", est.Seconds)
}
