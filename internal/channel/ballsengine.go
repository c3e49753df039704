package channel

import (
	"math"

	"rfidest/internal/xrand"
)

// BallsEngine samples frame outcomes from the exact occupancy distribution
// of the tag process without iterating tags: the number of responses is
// Binomial(n·k, p) (each of the n·k (tag, hash) pairs responds
// independently with probability p) and responses land in slots according
// to the configured slot distribution. For ideal hashing this is the same
// stochastic process as TagEngine — see TestEnginesAgree. A frame costs
// O(min(n·k·p, w)) RNG draws plus the w/64 words of the returned frame, with
// no per-slot counts, which makes protocols that run thousands of frames
// (ZOE) tractable in large sweeps.
//
// Like every engine, a BallsEngine is single-session state (its RNG and
// energy counter advance on every frame) — one goroutine drives it for
// its whole life. Concurrency happens one level up, with one engine per
// session.
type BallsEngine struct {
	N   int // ground-truth population size
	rng *xrand.Rand

	// transmissions counts sampled tag responses so far (EnergyMeter).
	transmissions int
}

// NewBallsEngine returns a synthetic engine for a population of n tags.
// Frame outcomes are deterministic given (seed, frame seeds).
func NewBallsEngine(n int, seed uint64) *BallsEngine {
	if n < 0 {
		panic("channel: negative population size")
	}
	return &BallsEngine{N: n, rng: xrand.NewStream(seed, 0xba115)}
}

// Size implements Engine.
func (e *BallsEngine) Size() int { return e.N }

// frameRNG derives the stream for one frame from the frame seed, so equal
// seeds replay identical frames (matching the deterministic tag behaviour).
// It is xrand.NewStream(e.rng.Uint64(), req.Seed), returned by value so the
// frame's generator stays on the stack.
func (e *BallsEngine) frameRNG(req FrameRequest) xrand.Rand {
	return xrand.Seeded(xrand.Combine(e.rng.Uint64(), req.Seed))
}

// RunFrame implements Engine.
func (e *BallsEngine) RunFrame(req FrameRequest) BitVec {
	observe := req.validate()
	busy := NewBitVec(observe)
	tx := 0
	rng := e.frameRNG(req)
	scatterBalls(&rng, e.N*req.K, req, func(slot, c int) {
		if slot < observe {
			busy.setBusy(slot)
			tx += c
		}
	})
	e.transmissions += tx
	return busy
}

// scatterBalls samples the exact multinomial occupancy of a frame and
// reports it as add(slot, c) calls, each landing c ≥ 1 responses in slot; a
// slot's count is the sum of its calls. The response count is
// Binomial(pairs, p) and responses are distributed over the W slots per the
// slot distribution. When the number of responses is large relative to the
// frame it switches from per-ball throwing to sequential binomial splitting
// (bin_i ~ Bin(remaining, q_i / tail_i)), which samples the identical joint
// law in O(W) instead of O(balls).
func scatterBalls(rng *xrand.Rand, pairs int, req FrameRequest, add func(slot, c int)) {
	balls := rng.Binomial(pairs, req.P)
	last := req.W - 1
	switch req.Dist {
	case Uniform:
		if balls <= 4*req.W {
			for i := 0; i < balls; i++ {
				add(rng.Intn(req.W), 1)
			}
			return
		}
		remaining := balls
		for i := 0; i < last && remaining > 0; i++ {
			if c := rng.Binomial(remaining, 1/float64(req.W-i)); c > 0 {
				add(i, c)
				remaining -= c
			}
		}
		if remaining > 0 {
			add(last, remaining)
		}
	case Geometric:
		if balls <= 4*req.W {
			for i := 0; i < balls; i++ {
				add(min(rng.GeometricHalf(), last), 1)
			}
			return
		}
		// Slot j carries 2^{-(j+1)} of the mass; conditioned on not
		// landing earlier, each ball picks slot j with probability 1/2.
		remaining := balls
		for j := 0; j < last && remaining > 0; j++ {
			if c := rng.Binomial(remaining, 0.5); c > 0 {
				add(j, c)
				remaining -= c
			}
		}
		if remaining > 0 {
			add(last, remaining)
		}
	default:
		panic("channel: unknown slot distribution")
	}
}

// FirstResponse implements Engine. The first busy slot is the minimum of
// the responders' slots; for the uniform case it is sampled directly from
// the distribution of the minimum of `balls` uniform draws on [0, w).
func (e *BallsEngine) FirstResponse(req FrameRequest, maxScan int) int {
	req.Observe = 0
	req.validate()
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	rng := e.frameRNG(req)
	balls := rng.Binomial(e.N*req.K, req.P)
	if balls == 0 {
		return -1
	}
	var min int
	switch req.Dist {
	case Uniform:
		// P(min >= t) = (1 - t/w)^balls; invert the continuous analogue
		// and floor — exact for the continuous uniform, and within one
		// slot of the discrete law, which is what the frame granularity
		// observes anyway.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		frac := 1 - math.Pow(u, 1/float64(balls))
		min = int(frac * float64(req.W))
		if min >= req.W {
			min = req.W - 1
		}
	case Geometric:
		// Minimum of geometric draws: sample directly; balls is small for
		// geometric protocols (they use p to thin heavily).
		min = req.W - 1
		for i := 0; i < balls; i++ {
			if j := rng.GeometricHalf(); j < min {
				min = j
			}
		}
	default:
		panic("channel: unknown slot distribution")
	}
	if min >= maxScan {
		return -1
	}
	// At least one ball sits in the winning slot; the multiplicity beyond
	// one is O(balls/W) and not resolved by the closed-form sampler.
	e.transmissions++
	return min
}
