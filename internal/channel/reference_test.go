package channel

// This file retains the pre-packing []bool frame representation as the
// behavioral reference for the word-packed BitVec. It is test-only, so the
// rfidlint boolframe analyzer (which reads non-test files) never sees it:
// equivalence tests cross-check packed engine output and aggregate queries
// against these implementations on randomized frames, and the frame
// benchmarks use them as the speedup baseline.

// refVec is a frame in the reference representation: refVec[i] reports
// whether slot i was busy.
type refVec []bool

// countBusy is the reference CountBusy: one branch per slot.
func (b refVec) countBusy() int {
	n := 0
	for _, busy := range b {
		if busy {
			n++
		}
	}
	return n
}

// countIdle is the reference CountIdle.
func (b refVec) countIdle() int { return len(b) - b.countBusy() }

// rhoIdle is the reference RhoIdle.
func (b refVec) rhoIdle() float64 {
	if len(b) == 0 {
		return 0
	}
	return float64(b.countIdle()) / float64(len(b))
}

// firstBusy is the reference FirstBusy.
func (b refVec) firstBusy() int {
	for i, busy := range b {
		if busy {
			return i
		}
	}
	return -1
}

// firstIdle is the reference FirstIdle: a fully busy frame reports its
// length.
func (b refVec) firstIdle() int {
	for i, busy := range b {
		if !busy {
			return i
		}
	}
	return len(b)
}

// runs is the reference Runs.
func (b refVec) runs() []int {
	var runs []int
	cur := 0
	for _, busy := range b {
		if busy {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// refRunFrame executes one frame exactly as the pre-packing TagEngine did,
// scattering into a []bool. It meters transmissions identically, so a twin
// engine driven through it stays in lockstep with one driven through
// RunFrame.
func (e *TagEngine) refRunFrame(req FrameRequest) refVec {
	observe := req.validate()
	busy := make([]bool, req.W)
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			slot, responds := e.tagDecision(tag, req, j)
			if responds {
				busy[slot] = true
				if slot < observe {
					e.transmissions++
				}
			}
		}
	}
	return refVec(busy[:observe])
}

// refRunFrame executes one frame exactly as the pre-packing BallsEngine
// did. It advances the engine's RNG the same way as RunFrame, so twin
// engines with equal seeds replay identical frame sequences through either
// path.
func (e *BallsEngine) refRunFrame(req FrameRequest) refVec {
	observe := req.validate()
	rng := e.frameRNG(req)
	counts := scatterCounts(rng, e.N*req.K, req)
	busy := make(refVec, observe)
	for i := range busy {
		busy[i] = counts[i] > 0
		e.transmissions += counts[i]
	}
	return busy
}
