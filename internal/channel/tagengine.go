package channel

import (
	"math"
	"math/bits"

	"rfidest/internal/hash"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// HashMode selects the tag-side hash/persistence implementation the
// TagEngine executes.
type HashMode int

const (
	// IdealRN hashes the tag's prestored random number RN with an ideal
	// 64-bit mixer and makes persistence decisions from hash bits. This is
	// the default: like the paper's scheme it depends only on RN (so tagID
	// distribution is irrelevant by construction) but has no quantization
	// bias.
	IdealRN HashMode = iota
	// IdealID hashes the tagID itself with an ideal mixer. Estimation
	// robustness across T1/T2/T3 under this mode demonstrates that a good
	// hash absorbs any ID distribution.
	IdealID
	// PaperXOR executes §IV-E.2/§IV-E.3: slot selection is
	// bitget(RN ⊕ RS_j, log2(w):1) and persistence compares 10 bits of RN
	// against the broadcast numerator (probability p_n/1024; see
	// hash.PaperPersistence for the off-by-one in the paper's text).
	// Requires power-of-two W.
	PaperXOR
)

// String names the hash mode.
func (m HashMode) String() string {
	switch m {
	case IdealRN:
		return "ideal-rn"
	case IdealID:
		return "ideal-id"
	case PaperXOR:
		return "paper-xor"
	default:
		return "unknown"
	}
}

// TagEngine executes frames by running the tag-side algorithm for every
// tag. A frame costs O(n·k) persistence-coin checks and O(n·k·p) slot
// hashes: as in Algorithm 2, a tag selects a slot only once its coin says
// it transmits.
//
// An engine belongs to exactly one reader session and is driven by one
// goroutine: the energy counter is written on every frame without
// synchronization. Pop, however, is only read, so any number of sessions
// may share one population — which is how a shared System supports
// concurrent estimation (it builds a fresh engine per session).
type TagEngine struct {
	Pop  *tags.Population
	Mode HashMode

	// transmissions counts tag responses executed so far (EnergyMeter).
	// A tag whose selected slot lies beyond the observed prefix never
	// reaches it (the reader terminates the frame) and is not counted.
	transmissions int
}

// NewTagEngine returns a per-tag engine over pop using mode.
func NewTagEngine(pop *tags.Population, mode HashMode) *TagEngine {
	return &TagEngine{Pop: pop, Mode: mode}
}

// Size returns the ground-truth cardinality.
func (e *TagEngine) Size() int { return e.Pop.N() }

// RunFrame implements Engine.
func (e *TagEngine) RunFrame(req FrameRequest) BitVec {
	observe := req.validate()
	busy := NewBitVec(observe)
	tx := 0
	e.eachResponse(req, func(slot int) {
		if slot < observe {
			busy.setBusy(slot)
			tx++
		}
	})
	e.transmissions += tx
	return busy
}

// FirstResponse implements Engine. It avoids materializing the frame by
// tracking the minimum selected slot across responders. Only the tags that
// actually reach the air — those in the first busy slot — are charged a
// transmission (the reader terminates the frame there).
func (e *TagEngine) FirstResponse(req FrameRequest, maxScan int) int {
	req.Observe = 0 // first-response scans ignore Observe
	req.validate()
	if maxScan <= 0 || maxScan > req.W {
		maxScan = req.W
	}
	min := -1
	txAtMin := 0
	e.eachResponse(req, func(slot int) {
		switch {
		case slot >= maxScan:
		case min == -1 || slot < min:
			min = slot
			txAtMin = 1
		case slot == min:
			txAtMin++
		}
	})
	e.transmissions += txAtMin
	return min
}

// SlotFor returns the slot that a tag selects for hash j of a frame, under
// the given hash mode — the same computation the engine's tags perform.
// Reader-side protocols that precompute expected slots (missing-tag
// detection) use it so their view of the hash is the engine's by
// construction.
func SlotFor(tag tags.Tag, mode HashMode, dist SlotDist, seed uint64, j, w int) int {
	switch mode {
	case PaperXOR:
		rs := uint32(xrand.Combine(seed, uint64(j)))
		if dist == Geometric {
			return hash.GeometricSlot(uint64(tag.RN^rs), seed, w-1)
		}
		return hash.PaperTagHashW(tag.RN, rs, w)
	case IdealID, IdealRN:
		key := uint64(tag.RN)
		if mode == IdealID {
			key = tag.ID
		}
		seedJ := xrand.Combine(seed, uint64(j))
		if dist == Geometric {
			return hash.GeometricSlot(key, seedJ, w-1)
		}
		return hash.UniformSlot(key, seedJ, w)
	default:
		panic("channel: unknown hash mode")
	}
}

// maxStackK is the largest hash count whose per-frame constants live on
// the stack (BFCE uses k = 3); larger k allocates them once per frame.
const maxStackK = 8

// hashConsts are the constants of hash j that every tag shares within a
// frame. Ideal modes: slot = Combine(seed, j) seeds the slot hash and
// coin = Combine(seed, j, 0x9e37) the persistence coin. PaperXOR:
// slot = RS_j and coin is the rotation selecting the 10 persistence bits.
type hashConsts struct{ slot, coin uint64 }

// eachResponse runs the tag-side algorithm of one frame and calls emit with
// the selected slot of every (tag, hash) pair that transmits. The
// persistence coin runs first, so only responders pay for a slot hash. That
// is the same outcome as hashing the slot first: in PaperXOR the coin and
// slot read disjoint RN bits, and in the ideal modes they are independent
// hash streams. Callers fold the slots order-free (OR, sum, min).
func (e *TagEngine) eachResponse(req FrameRequest, emit func(slot int)) {
	if len(e.Pop.Tags) == 0 {
		return
	}
	switch e.Mode {
	case PaperXOR:
		e.paperResponses(req, emit)
	case IdealID, IdealRN:
		e.idealResponses(req, emit)
	default:
		panic("channel: unknown hash mode")
	}
}

// idealResponses is eachResponse for IdealRN and IdealID. Uniform64(key, s)
// is Reseed(Premix(key), s), so each tag mixes its key once and shares it
// across its k coins and slot hashes.
func (e *TagEngine) idealResponses(req FrameRequest, emit func(slot int)) {
	if req.P <= 0 {
		return
	}
	var buf [maxStackK]hashConsts
	hc := buf[:0]
	for j := 0; j < req.K; j++ {
		hc = append(hc, hashConsts{
			slot: xrand.Combine(req.Seed, uint64(j)),
			coin: xrand.Combine(req.Seed, uint64(j), 0x9e37),
		})
	}
	thr := coinThreshold(req.P)
	always := thr == 1<<53
	useID := e.Mode == IdealID
	geometric := req.Dist == Geometric
	for ti := range e.Pop.Tags {
		tag := &e.Pop.Tags[ti]
		key := uint64(tag.RN)
		if useID {
			key = tag.ID
		}
		pre := hash.Premix(key)
		for _, c := range hc {
			if !always && hash.Reseed(pre, c.coin)>>11 >= thr {
				continue
			}
			if geometric {
				emit(hash.GeometricSlot(key, c.slot, req.W-1))
			} else {
				emit(hash.ScaleSlot(hash.Reseed(pre, c.slot), req.W))
			}
		}
	}
}

// coinThreshold returns t with h>>11 < t ⟺ hash.UniformFloat's value
// float64(h>>11)/2^53 < p, the ideal-mode persistence test for p in (0, 1].
// Both h>>11 and p·2^53 are exact in float64, and an integer lies below a
// real iff it lies below the real's ceiling.
func coinThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// paperResponses is eachResponse for PaperXOR: persistence compares 10 RN
// bits against p_n (hash.PaperPersistence) and the slot is
// bitget(RN ⊕ RS_j, log2(w):1) (hash.PaperTagHashW).
func (e *TagEngine) paperResponses(req FrameRequest, emit func(slot int)) {
	geometric := req.Dist == Geometric
	var mask uint32
	if !geometric {
		// w-1, panicking unless w is a power of two > 1.
		mask = uint32(hash.PaperTagHashW(^uint32(0), 0, req.W))
	}
	pn := int(req.P*1024 + 0.5)
	if pn <= 0 {
		return
	}
	// The 10 persistence bits must come from RN bits the slot hash does not
	// use (otherwise responders concentrate on a slot subset): slot uses
	// the low log2(w) bits, so rotate the window above them.
	base := uint(bits.Len(uint(req.W)) - 1)
	span := uint(1)
	if base < 22 {
		span = 23 - base
	} else {
		base = 22
	}
	var buf [maxStackK]hashConsts
	hc := buf[:0]
	for j := 0; j < req.K; j++ {
		rs := uint32(xrand.Combine(req.Seed, uint64(j)))
		rot := (base + (uint(rs>>27)+uint(j))%span) % 23
		hc = append(hc, hashConsts{slot: uint64(rs), coin: uint64(rot)})
	}
	for ti := range e.Pop.Tags {
		rn := e.Pop.Tags[ti].RN
		for _, c := range hc {
			if int((rn>>c.coin)&0x3ff) >= pn {
				continue
			}
			rs := uint32(c.slot)
			if geometric {
				emit(hash.GeometricSlot(uint64(rn^rs), req.Seed, req.W-1))
			} else {
				emit(int((rn ^ rs) & mask))
			}
		}
	}
}
