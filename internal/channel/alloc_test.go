package channel

import (
	"testing"

	"rfidest/internal/tags"
)

// Allocation gates: a frame allocates its returned frame and nothing else.
// Allocation counts do not depend on the host, so unlike timings they gate.

var (
	sinkVec BitVec
	sinkOcc Occupancy
	sinkInt int
)

func TestFramesAllocateOnlyTheirResult(t *testing.T) {
	const w = 8192
	vecAllocs := testing.AllocsPerRun(20, func() { sinkVec = NewBitVec(w) })
	occAllocs := testing.AllocsPerRun(20, func() { sinkOcc = make(Occupancy, w) })

	reqs := map[string]FrameRequest{
		"uniform":   {W: w, K: 3, P: 0.01, Seed: 1},
		"splitting": {W: w, K: 3, P: 1, Seed: 2},
		"geometric": {W: 32, K: 1, P: 0.5, Dist: Geometric, Seed: 3},
	}
	balls := NewBallsEngine(100000, 4)
	for name, req := range reqs {
		if got := testing.AllocsPerRun(20, func() { sinkVec = balls.RunFrame(req) }); got > vecAllocs {
			t.Errorf("BallsEngine.RunFrame %s: %v allocs, the returned BitVec takes %v", name, got, vecAllocs)
		}
		if got := testing.AllocsPerRun(20, func() { sinkOcc = balls.RunFrameOccupancy(req) }); got > occAllocs {
			t.Errorf("BallsEngine.RunFrameOccupancy %s: %v allocs, the returned Occupancy takes %v", name, got, occAllocs)
		}
	}

	pop := tags.Generate(2000, tags.T1, 5)
	req := FrameRequest{W: w, K: 3, P: 0.01, Seed: 6}
	for _, mode := range allModes {
		e := NewTagEngine(pop, mode)
		if got := testing.AllocsPerRun(20, func() { sinkVec = e.RunFrame(req) }); got > vecAllocs {
			t.Errorf("TagEngine(%v).RunFrame: %v allocs, the returned BitVec takes %v", mode, got, vecAllocs)
		}
		if got := testing.AllocsPerRun(20, func() { sinkOcc = e.RunFrameOccupancy(req) }); got > occAllocs {
			t.Errorf("TagEngine(%v).RunFrameOccupancy: %v allocs, the returned Occupancy takes %v", mode, got, occAllocs)
		}
		if got := testing.AllocsPerRun(20, func() { sinkInt = e.FirstResponse(req, 0) }); got > 0 {
			t.Errorf("TagEngine(%v).FirstResponse: %v allocs, want 0", mode, got)
		}
	}
}
