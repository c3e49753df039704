package channel

import (
	"fmt"
	"testing"

	"rfidest/internal/tags"
)

// benchTagFrames measures one full 8192-slot BFCE-style frame over
// materialized populations of 1e4, 1e5 and 1e6 tags (the hot path of
// tag-level experiments). Frames over more than one chunk of tags shard
// across cores; run with -cpu 1,2 to compare.
func benchTagFrames(b *testing.B, mode HashMode, seed uint64) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		pop := tags.Generate(n, tags.T1, seed)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := NewTagEngine(pop, mode)
			req := FrameRequest{W: 8192, K: 3, P: 0.01}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Seed = uint64(i)
				_ = e.RunFrame(req)
			}
		})
	}
}

// BenchmarkTagEngineFrame measures frames under the ideal RN hash.
func BenchmarkTagEngineFrame(b *testing.B) { benchTagFrames(b, IdealRN, 1) }

// BenchmarkTagEnginePaperXORFrame measures the same frames under the
// paper's literal tag-side hash.
func BenchmarkTagEnginePaperXORFrame(b *testing.B) { benchTagFrames(b, PaperXOR, 2) }

// BenchmarkBallsEngineFrame measures the synthetic engine on the same
// frame (the fast path large sweeps rely on).
func BenchmarkBallsEngineFrame(b *testing.B) {
	e := NewBallsEngine(100000, 3)
	req := FrameRequest{W: 8192, K: 3, P: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}

// BenchmarkBallsEngineZOESlot measures one ZOE-style single-bit frame.
func BenchmarkBallsEngineZOESlot(b *testing.B) {
	e := NewBallsEngine(500000, 4)
	req := FrameRequest{W: 1, K: 1, P: 1.594 / 500000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}

// BenchmarkBallsEngineFullPersistenceGeometric measures the sequential
// binomial-splitting path (5M responses into 32 slots).
func BenchmarkBallsEngineFullPersistenceGeometric(b *testing.B) {
	e := NewBallsEngine(5000000, 5)
	req := FrameRequest{W: 32, K: 1, P: 1, Dist: Geometric}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = uint64(i)
		_ = e.RunFrame(req)
	}
}
