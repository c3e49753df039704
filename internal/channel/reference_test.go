package channel

import (
	"math/bits"

	"rfidest/internal/hash"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// This file retains the engines' earlier implementations as behavioral
// references, test-only so they can never be reached from production code:
//
//   - refVec is the pre-packing []bool frame representation the
//     word-packed BitVec replaced. The rfidlint boolframe analyzer reads
//     non-test files only, so it never sees it.
//   - refTagDecision is the slot-first tag-side algorithm: every (tag,
//     hash) pair hashes its slot, then flips its persistence coin.
//   - refScatterCounts is the balls engine's counts-array sampler.
//
// The equivalence tests (packed_equiv_test.go) cross-check the engines'
// frames, transmission metering and aggregate queries against these on
// randomized inputs, and the frame benchmarks use them as the before-side.

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

// refRunFrame executes one frame exactly as the pre-packing, slot-first
// TagEngine did, scattering into a []bool. It meters transmissions
// identically, so a twin engine driven through it stays in lockstep with
// one driven through RunFrame.
func (e *TagEngine) refRunFrame(req FrameRequest) refVec {
	observe := req.validate()
	busy := make([]bool, req.W)
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			slot, responds := e.refTagDecision(tag, req, j)
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

// refFirstResponse is the slot-first TagEngine.FirstResponse.
func (e *TagEngine) refFirstResponse(req FrameRequest, maxScan int) int {
	req.Observe = 0
	req.validate()
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	min := -1
	txAtMin := 0
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			slot, responds := e.refTagDecision(tag, req, j)
			if !responds || slot >= maxScan {
				continue
			}
			switch {
			case min == -1 || slot < min:
				min = slot
				txAtMin = 1
			case slot == min:
				txAtMin++
			}
		}
	}
	e.transmissions += txAtMin
	return min
}

// refRunFrameOccupancy is the slot-first, counts-array
// TagEngine.RunFrameOccupancy.
func (e *TagEngine) refRunFrameOccupancy(req FrameRequest) Occupancy {
	observe := req.validate()
	counts := make([]int, req.W)
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		for j := 0; j < req.K; j++ {
			slot, responds := e.refTagDecision(tag, req, j)
			if responds {
				counts[slot]++
				if slot < observe {
					e.transmissions++
				}
			}
		}
	}
	occ := make(Occupancy, observe)
	for i := range occ {
		occ[i] = stateOf(counts[i])
	}
	return occ
}

// refTagDecision runs the tag-side algorithm for hash j: which slot the tag
// selects and whether it actually responds there (p-persistence).
func (e *TagEngine) refTagDecision(tag *tags.Tag, req FrameRequest, j int) (slot int, responds bool) {
	slot = SlotFor(*tag, e.Mode, req.Dist, req.Seed, j, req.W)
	switch e.Mode {
	case PaperXOR:
		rs := uint32(xrand.Combine(req.Seed, uint64(j)))
		pn := int(req.P*1024 + 0.5)
		// The 10 persistence bits must come from RN bits the slot hash does
		// not use (otherwise responders concentrate on a slot subset):
		// slot uses the low log2(w) bits, so rotate the window above them.
		base := uint(bits.Len(uint(req.W)) - 1)
		span := uint(1)
		if base < 22 {
			span = 23 - base
		} else {
			base = 22
		}
		rot := base + (uint(rs>>27)+uint(j))%span
		responds = hash.PaperPersistence(tag.RN, rot, pn)
		return slot, responds
	case IdealID, IdealRN:
		key := uint64(tag.RN)
		if e.Mode == IdealID {
			key = tag.ID
		}
		if req.P >= 1 {
			return slot, true
		}
		if req.P <= 0 {
			return slot, false
		}
		// Persistence from an independent hash stream (the tag's "coin").
		responds = hash.UniformFloat(key, xrand.Combine(req.Seed, uint64(j), 0x9e37)) < req.P
		return slot, responds
	default:
		panic("channel: unknown hash mode")
	}
}

// refRunFrame executes one frame exactly as the counts-array BallsEngine
// did. It advances the engine's RNG the same way as RunFrame, so twin
// engines with equal seeds replay identical frame sequences through either
// path.
func (e *BallsEngine) refRunFrame(req FrameRequest) refVec {
	observe := req.validate()
	rng := e.frameRNG(req)
	counts := refScatterCounts(&rng, e.N*req.K, req)
	busy := make(refVec, observe)
	for i := range busy {
		busy[i] = counts[i] > 0
		e.transmissions += counts[i]
	}
	return busy
}

// refRunFrameOccupancy is the counts-array BallsEngine.RunFrameOccupancy.
func (e *BallsEngine) refRunFrameOccupancy(req FrameRequest) Occupancy {
	observe := req.validate()
	rng := e.frameRNG(req)
	counts := refScatterCounts(&rng, e.N*req.K, req)
	occ := make(Occupancy, observe)
	for i := range occ {
		occ[i] = stateOf(counts[i])
		e.transmissions += counts[i]
	}
	return occ
}

// refScatterCounts samples the exact multinomial occupancy of a frame: the
// response count is Binomial(pairs, p) and responses are distributed over
// the W slots per the slot distribution. When the number of responses is
// large relative to the frame it switches from per-ball throwing to
// sequential binomial splitting (bin_i ~ Bin(remaining, q_i / tail_i)),
// which samples the identical joint law in O(W) instead of O(balls).
func refScatterCounts(rng *xrand.Rand, pairs int, req FrameRequest) []int {
	balls := rng.Binomial(pairs, req.P)
	counts := make([]int, req.W)
	switch req.Dist {
	case Uniform:
		if balls <= 4*req.W {
			for i := 0; i < balls; i++ {
				counts[rng.Intn(req.W)]++
			}
			return counts
		}
		remaining := balls
		for i := 0; i < req.W-1 && remaining > 0; i++ {
			c := rng.Binomial(remaining, 1/float64(req.W-i))
			counts[i] = c
			remaining -= c
		}
		counts[req.W-1] += remaining
		return counts
	case Geometric:
		if balls <= 4*req.W {
			for i := 0; i < balls; i++ {
				j := rng.GeometricHalf()
				if j >= req.W {
					j = req.W - 1
				}
				counts[j]++
			}
			return counts
		}
		// Slot j carries 2^{-(j+1)} of the mass; conditioned on not
		// landing earlier, each ball picks slot j with probability 1/2.
		remaining := balls
		for j := 0; j < req.W-1 && remaining > 0; j++ {
			c := rng.Binomial(remaining, 0.5)
			counts[j] = c
			remaining -= c
		}
		counts[req.W-1] += remaining
		return counts
	default:
		panic("channel: unknown slot distribution")
	}
}
