package channel

// SlotState is the reader-side view of one framed-Aloha slot when slots are
// long enough (carrying a short payload rather than a single bit) for the
// reader to distinguish collisions — the channel model of the pre-bit-slot
// estimators UPE and EZB [17][18].
type SlotState uint8

const (
	// Empty: no tag transmitted in the slot.
	Empty SlotState = iota
	// Single: exactly one tag transmitted (decodable reply).
	Single
	// Collision: two or more tags transmitted.
	Collision
)

// String names the slot state.
func (s SlotState) String() string {
	switch s {
	case Empty:
		return "empty"
	case Single:
		return "single"
	case Collision:
		return "collision"
	default:
		return "invalid"
	}
}

// Occupancy is a frame observed at slot-state granularity.
type Occupancy []SlotState

// Count returns how many slots are in state s.
func (o Occupancy) Count(s SlotState) int {
	n := 0
	for _, v := range o {
		if v == s {
			n++
		}
	}
	return n
}

// stateOf maps a slot's transmission count to its observed state.
func stateOf(count int) SlotState {
	switch {
	case count == 0:
		return Empty
	case count == 1:
		return Single
	default:
		return Collision
	}
}

// plus returns the state of a slot in state s after c more transmissions.
// Empty, Single and Collision are the counts 0, 1 and ≥2 saturated at 2, so
// adding to the saturated count gives the state of the exact count.
func (s SlotState) plus(c int) SlotState { return stateOf(int(s) + c) }

// OccupancyEngine is implemented by engines that can also execute frames at
// slot-state granularity. All engines in this package implement it.
type OccupancyEngine interface {
	Engine
	// RunFrameOccupancy executes one frame and returns the empty/single/
	// collision state of the first Observe slots.
	RunFrameOccupancy(req FrameRequest) Occupancy
}

// RunFrameOccupancy implements OccupancyEngine for the per-tag engine.
func (e *TagEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	observe := req.validate()
	s := frameSink{occ: make(Occupancy, observe)}
	e.execute(req, occupancyFrame, observe, &s)
	e.transmissions += s.tx
	return s.occ
}

// RunFrameOccupancy implements OccupancyEngine for the synthetic engine.
func (e *BallsEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	observe := req.validate()
	occ := make(Occupancy, observe)
	tx := 0
	rng := e.frameRNG(req)
	scatterBalls(&rng, e.N*req.K, req, func(slot, c int) {
		if slot < observe {
			occ[slot] = occ[slot].plus(c)
			tx += c
		}
	})
	e.transmissions += tx
	return occ
}

// RunFrameOccupancy implements OccupancyEngine for the noisy wrapper: an
// empty slot reads as a phantom singleton with probability FalseBusy, and a
// singleton is missed (reads empty) with probability FalseIdle. Collisions
// are loud enough to always be detected.
func (e *NoisyEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	inner, ok := e.Inner.(OccupancyEngine)
	if !ok {
		panic("channel: inner engine does not support occupancy frames")
	}
	occ := inner.RunFrameOccupancy(req)
	for i, s := range occ {
		switch s {
		case Empty:
			if e.rng.Bernoulli(e.FalseBusy) {
				occ[i] = Single
			}
		case Single:
			if e.rng.Bernoulli(e.FalseIdle) {
				occ[i] = Empty
			}
		}
	}
	return occ
}

// ExecuteFrameOccupancy runs a slot-state frame and charges the clock
// slotBits tag bits per observed slot (Aloha slots carry a short payload,
// unlike 1-bit bit-slots).
func (r *Reader) ExecuteFrameOccupancy(req FrameRequest, slotBits int) Occupancy {
	eng, ok := r.Engine.(OccupancyEngine)
	if !ok {
		panic("channel: engine does not support occupancy frames")
	}
	if slotBits < 1 {
		panic("channel: slotBits must be positive")
	}
	occ := eng.RunFrameOccupancy(req)
	r.clock.Listen(len(occ) * slotBits)
	return occ
}
