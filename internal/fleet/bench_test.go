package fleet

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rfidest"
)

// BenchmarkMap measures the pool's raw dispatch overhead on trivial work.
func BenchmarkMap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), 0, 256, func(i int) int { return i }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures job-level batch throughput: 4 shared synthetic
// Systems x BFCE x 2 trials, sequential vs full-width pool.
func BenchmarkRun(b *testing.B) {
	sys := rfidest.NewSystem(200000, rfidest.WithSeed(1), rfidest.WithSynthetic())
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{System: sys, Estimator: "BFCE", Epsilon: 0.05, Delta: 0.05, Trials: 2})
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), Config{Workers: workers, Seed: 7}, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Trials != 8 {
					b.Fatalf("trials %d", rep.Trials)
				}
			}
		})
	}
}

// BenchmarkRunTagLevel measures a batch over materialized (tag-level)
// Systems on a pool of GOMAXPROCS workers: 4 Systems of 200k tags x BFCE x
// 2 trials. With every core running a worker, frames find few free helper
// slots and mostly run on their worker alone; the row shows that sharding
// does not slow a pool that already fills the cores.
func BenchmarkRunTagLevel(b *testing.B) {
	var jobs []Job
	for i := 0; i < 4; i++ {
		sys := rfidest.NewSystem(200000, rfidest.WithSeed(uint64(i+1)))
		jobs = append(jobs, Job{System: sys, Estimator: "BFCE", Epsilon: 0.05, Delta: 0.05, Trials: 2})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), Config{Workers: runtime.GOMAXPROCS(0), Seed: 7}, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Trials != 8 {
			b.Fatalf("trials %d", rep.Trials)
		}
	}
}
