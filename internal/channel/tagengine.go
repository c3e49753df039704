package channel

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// An engine belongs to exactly one reader session and its caller drives it
// from one goroutine: the energy counter is written on every frame without
// synchronization. A frame over more than one chunk of tags fans out
// internally to free helper goroutines (see execute) and joins them before
// it returns, with the same result to the bit. Pop is only read, so any
// number of sessions may share one population — which is how a shared
// System supports concurrent estimation (it builds a fresh engine per
// session).
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
	s := frameSink{busy: NewBitVec(observe)}
	e.execute(req, busyFrame, observe, &s)
	e.transmissions += s.tx
	return s.busy
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
	s := frameSink{min: -1}
	e.execute(req, firstFrame, maxScan, &s)
	e.transmissions += s.tx
	return s.min
}

// Frame sharding. Tags build a frame independently and the reader senses
// an order-free fold of their responses (OR of busy bits, saturating sum
// of slot states, minimum busy slot), so the frame of the population is
// the fold of the frames of any partition of it. execute splits the
// population into chunks of shardChunk tags; the calling goroutine and the
// helpers it could claim take chunks from a shared cursor until none are
// left, each folding into its own sink, and the caller merges the sinks
// once every helper is done. The frame and its metering are the same to
// the bit for any core count and any schedule.
const (
	// shardChunk is the number of tags a participant claims at a time. A
	// frame shards only when its population spans at least two chunks.
	shardChunk = 8192
	// maxHelpers caps the helper slots (a frame's claim is one uint64).
	maxHelpers = 63
)

// frameKind selects the fold a frame's sinks apply to responses.
type frameKind uint8

const (
	busyFrame      frameKind = iota // RunFrame: busy bits below limit
	occupancyFrame                  // RunFrameOccupancy: slot states below limit
	firstFrame                      // FirstResponse: least busy slot below limit
)

// frameSink is one participant's fold of the responses it executed.
type frameSink struct {
	busy BitVec    // busyFrame
	occ  Occupancy // occupancyFrame
	min  int       // firstFrame: least slot below limit, -1 if none
	// tx counts the responses metered: all below limit, or for a
	// firstFrame those in slot min.
	tx int
}

// merge folds another participant's sink of the same frame into s.
func (s *frameSink) merge(o *frameSink, kind frameKind) {
	switch kind {
	case busyFrame:
		s.busy.or(o.busy)
	case occupancyFrame:
		for i, c := range o.occ {
			if c != Empty {
				s.occ[i] = s.occ[i].plus(int(c))
			}
		}
	case firstFrame:
		switch {
		case o.min == -1:
			return
		case s.min == -1 || o.min < s.min:
			s.min, s.tx = o.min, o.tx
			return
		case o.min > s.min:
			return
		}
	}
	s.tx += o.tx
}

// frameJob is one frame in execution. It is fixed before any helper starts
// and until every helper is done; only the chunk cursor moves.
type frameJob struct {
	e     *TagEngine
	req   FrameRequest
	kind  frameKind
	limit int          // slots at or beyond limit are not observed
	next  atomic.Int64 // first tag of the next unclaimed chunk
	done  sync.WaitGroup
}

// helper is a process-wide helper slot; the slots are process-wide so that
// their cap holds across every engine in the process. A slot's sink
// storage outlives the frames it serves, a sharded frame's job lives in
// its lowest claimed slot, and run is made once, so once warm a frame
// allocates nothing for its helpers.
type helper struct {
	claimed atomic.Bool
	job     *frameJob // frame served; nil while free
	host    frameJob  // the job of a frame whose lowest slot this is
	sink    frameSink
	run     func()
}

var helpers [maxHelpers]helper

func init() {
	for i := range helpers {
		h := &helpers[i]
		h.sink.busy = NewBitVec(0)
		h.run = h.work
	}
}

// work folds chunks of h.job into h's sink until none are left.
func (h *helper) work() {
	j, s := h.job, &h.sink
	switch j.kind {
	case busyFrame:
		s.busy.bits.Reset(j.limit)
	case occupancyFrame:
		s.occ = slices.Grow(s.occ[:0], j.limit)[:j.limit]
		clear(s.occ)
	}
	s.min, s.tx = -1, 0
	j.respondChunks(s)
	j.done.Done()
}

// execute runs the frame req over the whole population, folding it into
// s. A frame that spans at least two chunks and can produce responses
// claims free helper slots, never waiting for one: at most GOMAXPROCS−1
// helpers run process-wide, so with every slot taken (say by a worker pool
// that already fills the cores) a frame runs on its caller alone. Every
// helper is joined before execute returns.
func (e *TagEngine) execute(req FrameRequest, kind frameKind, limit int, s *frameSink) {
	j := frameJob{e: e, req: req, kind: kind, limit: limit}
	if n := len(e.Pop.Tags); n > shardChunk && req.P > 0 {
		// A run over no tags raises any panic of the frame's setup (a
		// PaperXOR width that is not a power of two) here, on the caller.
		j.respond(nil, s)
		if claimed := claimHelpers((n - 1) / shardChunk); claimed != 0 {
			host := &helpers[bits.TrailingZeros64(claimed)].host
			host.e, host.req, host.kind, host.limit = e, req, kind, limit
			host.next.Store(0)
			host.shard(claimed, s)
			return
		}
	}
	j.respondChunks(s)
}

// shard runs j on the caller and the claimed helper slots, merges their
// sinks into s and frees the slots.
func (j *frameJob) shard(claimed uint64, s *frameSink) {
	for m := claimed; m != 0; m &= m - 1 {
		h := &helpers[bits.TrailingZeros64(m)]
		h.job = j
		j.done.Add(1)
		go h.run()
	}
	j.respondChunks(s)
	j.done.Wait()
	for m := claimed; m != 0; m &= m - 1 {
		h := &helpers[bits.TrailingZeros64(m)]
		s.merge(&h.sink, j.kind)
		h.job = nil
	}
	j.e = nil
	for m := claimed; m != 0; m &= m - 1 {
		helpers[bits.TrailingZeros64(m)].claimed.Store(false)
	}
}

// claimHelpers claims up to want free helper slots among the first
// GOMAXPROCS−1 and returns them as a bit mask.
func claimHelpers(want int) uint64 {
	var claimed uint64
	slots := min(runtime.GOMAXPROCS(0)-1, maxHelpers)
	for i := 0; i < slots && want > 0; i++ {
		if helpers[i].claimed.CompareAndSwap(false, true) {
			claimed |= 1 << i
			want--
		}
	}
	return claimed
}

// respondChunks claims chunks of the population until none are left and
// folds their responses into s.
func (j *frameJob) respondChunks(s *frameSink) {
	ts := j.e.Pop.Tags
	for {
		lo := int(j.next.Add(shardChunk)) - shardChunk
		if lo >= len(ts) {
			return
		}
		j.respond(ts[lo:min(lo+shardChunk, len(ts))], s)
	}
}

// respond folds the responses of the tags ts into s. The fold runs on
// locals and is stored back once, so helpers' sinks are not written per
// response.
func (j *frameJob) respond(ts []tags.Tag, s *frameSink) {
	limit := j.limit
	first, tx := s.min, s.tx
	var emit func(slot int)
	switch j.kind {
	case busyFrame:
		busy := s.busy
		emit = func(slot int) {
			if slot < limit {
				busy.setBusy(slot)
				tx++
			}
		}
	case occupancyFrame:
		occ := s.occ
		emit = func(slot int) {
			if slot < limit {
				occ[slot] = occ[slot].plus(1)
				tx++
			}
		}
	case firstFrame:
		emit = func(slot int) {
			switch {
			case slot >= limit:
			case first == -1 || slot < first:
				first = slot
				tx = 1
			case slot == first:
				tx++
			}
		}
	}
	switch mode := j.e.Mode; mode {
	case PaperXOR:
		paperResponses(ts, j.req, emit)
	case IdealID, IdealRN:
		idealResponses(ts, mode == IdealID, j.req, emit)
	default:
		panic("channel: unknown hash mode")
	}
	s.min, s.tx = first, tx
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
// the stack (BFCE uses k = 3); larger k allocates them once per chunk.
const maxStackK = 8

// hashConsts are the constants of hash j that every tag shares within a
// frame. Ideal modes: slot = Combine(seed, j) seeds the slot hash and
// coin = Combine(seed, j, 0x9e37) the persistence coin. PaperXOR:
// slot = RS_j and coin is the rotation selecting the 10 persistence bits.
type hashConsts struct{ slot, coin uint64 }

// idealResponses runs the tag-side algorithm of frame req for the tags ts
// under IdealRN (or IdealID when useID) and calls emit with the selected
// slot of every (tag, hash) pair that transmits. The persistence coin runs
// first, so only responders pay for a slot hash. That is the same outcome
// as hashing the slot first: the coin and the slot are independent hash
// streams. Uniform64(key, s) is Reseed(Premix(key), s), so each tag mixes
// its key once and shares it across its k coins and slot hashes.
func idealResponses(ts []tags.Tag, useID bool, req FrameRequest, emit func(slot int)) {
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
	geometric := req.Dist == Geometric
	for ti := range ts {
		tag := &ts[ti]
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

// paperResponses is idealResponses for PaperXOR: persistence compares 10
// RN bits against p_n (hash.PaperPersistence) and the slot is
// bitget(RN ⊕ RS_j, log2(w):1) (hash.PaperTagHashW). The coin and the
// slot read disjoint RN bits, so running the coin first changes nothing.
func paperResponses(ts []tags.Tag, req FrameRequest, emit func(slot int)) {
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
	for ti := range ts {
		rn := ts[ti].RN
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
