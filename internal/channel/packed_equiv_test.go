package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rfidest/internal/tags"
)

// These tests pin the engines to the implementations retained in
// reference_test.go: the word-packed BitVec to the []bool frame, the
// coin-first TagEngine to the slot-first tag-side algorithm, and the
// count-free BallsEngine to the counts-array sampler. Across the whole
// decision space (every hash mode, both slot distributions, p from 0 to 1,
// k beyond the stack-held constants) every entry point must produce
// identical frames, identical transmission metering and identical
// aggregate queries.

var allModes = []HashMode{IdealRN, IdealID, PaperXOR}

// randomReq draws a frame from the full parameter space the engines accept
// under mode: any width (a power of two for PaperXOR), k ∈ [1, 20], p at
// the edges, at the paper's small numerators or anywhere in [0, 1),
// occasional observed prefixes and geometric slot selection.
func randomReq(rng *rand.Rand, mode HashMode) FrameRequest {
	req := FrameRequest{K: 1 + rng.Intn(20), Seed: rng.Uint64()}
	if mode == PaperXOR {
		req.W = 2 << rng.Intn(12)
	} else {
		req.W = 1 + rng.Intn(3000)
	}
	switch rng.Intn(5) {
	case 0:
		req.P = 0
	case 1:
		req.P = 1.0 / 1024
	case 2:
		req.P = 4.0 / 1024
	case 3:
		req.P = rng.Float64()
	default:
		req.P = 1
	}
	if rng.Intn(4) == 0 {
		req.Observe = 1 + rng.Intn(req.W)
	}
	if rng.Intn(3) == 0 {
		req.Dist = Geometric
	}
	return req
}

// randomMaxScan draws a FirstResponse scan limit for req over pop: half
// the time anywhere in [0, W] (0 scans the whole frame), half the time
// exactly the frame's first busy slot, the limit that must exclude it.
func randomMaxScan(rng *rand.Rand, pop *tags.Population, mode HashMode, req FrameRequest) int {
	if rng.Intn(2) == 0 {
		return rng.Intn(req.W + 1)
	}
	return firstBusySlot(pop, mode, req)
}

// firstBusySlot is the first busy slot of req's whole frame over pop, or 0
// (scan everything) if the frame is idle.
func firstBusySlot(pop *tags.Population, mode HashMode, req FrameRequest) int {
	return max(NewTagEngine(pop, mode).refFirstResponse(req, 0), 0)
}

// assertMatchesRef checks every query the estimators run against a frame.
func assertMatchesRef(t *testing.T, label string, vec BitVec, ref refVec) {
	t.Helper()
	if vec.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, ref %d", label, vec.Len(), len(ref))
	}
	for i := range ref {
		if vec.Get(i) != ref[i] {
			t.Fatalf("%s: slot %d packed=%v ref=%v", label, i, vec.Get(i), ref[i])
		}
	}
	if got, want := vec.CountBusy(), ref.countBusy(); got != want {
		t.Fatalf("%s: CountBusy = %d, ref %d", label, got, want)
	}
	if got, want := vec.CountIdle(), ref.countIdle(); got != want {
		t.Fatalf("%s: CountIdle = %d, ref %d", label, got, want)
	}
	if got, want := vec.RhoIdle(), ref.rhoIdle(); got != want {
		t.Fatalf("%s: RhoIdle = %v, ref %v", label, got, want)
	}
	if got, want := vec.FirstBusy(), ref.firstBusy(); got != want {
		t.Fatalf("%s: FirstBusy = %d, ref %d", label, got, want)
	}
	if got, want := vec.FirstIdle(), ref.firstIdle(); got != want {
		t.Fatalf("%s: FirstIdle = %d, ref %d", label, got, want)
	}
	if got, want := vec.Runs(), ref.runs(); !runsEqual(got, want) {
		t.Fatalf("%s: Runs = %v, ref %v", label, got, want)
	}
}

func assertSameOccupancy(t *testing.T, label string, got, want Occupancy) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: occupancy length %d, ref %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d is %v, ref %v", label, i, got[i], want[i])
		}
	}
}

func assertSameTx(t *testing.T, label string, packed, ref EnergyMeter) {
	t.Helper()
	if packed.TagTransmissions() != ref.TagTransmissions() {
		t.Fatalf("%s: metered %d transmissions, ref %d",
			label, packed.TagTransmissions(), ref.TagTransmissions())
	}
}

// checkTagFrame runs req through all three entry points of twin tag
// engines, one on the engine path and one on the reference path.
func checkTagFrame(t *testing.T, label string, packed, ref *TagEngine, req FrameRequest, maxScan int) {
	t.Helper()
	label = fmt.Sprintf("%s %v %+v", label, packed.Mode, req)
	assertMatchesRef(t, label+" RunFrame", packed.RunFrame(req), ref.refRunFrame(req))
	assertSameTx(t, label+" RunFrame", packed, ref)
	if got, want := packed.FirstResponse(req, maxScan), ref.refFirstResponse(req, maxScan); got != want {
		t.Fatalf("%s: FirstResponse(maxScan %d) = %d, ref %d", label, maxScan, got, want)
	}
	assertSameTx(t, label+" FirstResponse", packed, ref)
	assertSameOccupancy(t, label+" RunFrameOccupancy", packed.RunFrameOccupancy(req), ref.refRunFrameOccupancy(req))
	assertSameTx(t, label+" RunFrameOccupancy", packed, ref)
}

// checkBallsFrame is checkTagFrame for twin balls engines. FirstResponse
// has a single implementation; driving both twins through it checks that
// the frame paths keep the twins' RNGs in lockstep.
func checkBallsFrame(t *testing.T, label string, packed, ref *BallsEngine, req FrameRequest, maxScan int) {
	t.Helper()
	label = fmt.Sprintf("%s balls %+v", label, req)
	assertMatchesRef(t, label+" RunFrame", packed.RunFrame(req), ref.refRunFrame(req))
	assertSameTx(t, label+" RunFrame", packed, ref)
	if got, want := packed.FirstResponse(req, maxScan), ref.FirstResponse(req, maxScan); got != want {
		t.Fatalf("%s: FirstResponse(maxScan %d) = %d, twin %d", label, maxScan, got, want)
	}
	assertSameTx(t, label+" FirstResponse", packed, ref)
	assertSameOccupancy(t, label+" RunFrameOccupancy", packed.RunFrameOccupancy(req), ref.refRunFrameOccupancy(req))
	assertSameTx(t, label+" RunFrameOccupancy", packed, ref)
}

func TestPackedTagEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	pop := tags.Generate(2000, tags.T1, 61)
	for _, mode := range allModes {
		packed := NewTagEngine(pop, mode)
		ref := NewTagEngine(pop, mode)
		for trial := 0; trial < 50; trial++ {
			req := randomReq(rng, mode)
			checkTagFrame(t, fmt.Sprintf("trial %d", trial), packed, ref, req, randomMaxScan(rng, pop, mode, req))
		}
	}
}

func TestPackedBallsEngineMatchesReference(t *testing.T) {
	// Twin engines with equal seeds hold identical RNG state; both frame
	// paths advance it identically, so the twins stay in lockstep across
	// the whole randomized sequence. With n·k up to 80000 responses, small
	// widths exercise the binomial-splitting path.
	rng := rand.New(rand.NewSource(808))
	packed := NewBallsEngine(4000, 63)
	ref := NewBallsEngine(4000, 63)
	for trial := 0; trial < 150; trial++ {
		req := randomReq(rng, allModes[rng.Intn(len(allModes))])
		checkBallsFrame(t, fmt.Sprintf("trial %d", trial), packed, ref, req, rng.Intn(req.W+1))
	}
}

func TestPackedSmallPopulationsMatchReference(t *testing.T) {
	// Edge populations: empty and tiny inventories, where all-idle vectors,
	// W = 1 frames and tail words dominate.
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 3} {
		pop := tags.Generate(n, tags.T1, uint64(100+n))
		for _, mode := range allModes {
			packed := NewTagEngine(pop, mode)
			ref := NewTagEngine(pop, mode)
			packedBalls := NewBallsEngine(n, uint64(200+n))
			refBalls := NewBallsEngine(n, uint64(200+n))
			for trial := 0; trial < 40; trial++ {
				req := randomReq(rng, mode)
				if mode != PaperXOR {
					req.W = 1 + rng.Intn(130)
					req.Observe = 0
				}
				label := fmt.Sprintf("n=%d trial %d", n, trial)
				maxScan := randomMaxScan(rng, pop, mode, req)
				checkTagFrame(t, label, packed, ref, req, maxScan)
				checkBallsFrame(t, label, packedBalls, refBalls, req, maxScan)
			}
		}
	}
}

func TestCoinThresholdMatchesUniformFloat(t *testing.T) {
	// The ideal-mode coin compares h>>11 against coinThreshold(p) where the
	// reference compares hash.UniformFloat's float64(h>>11)/2^53 against p.
	// The two agree on both sides of the threshold.
	rng := rand.New(rand.NewSource(53))
	ps := []float64{1, 0.5, 1.0 / 1024, 4.0 / 1024, 0.1, 1e-300, math.Nextafter(1, 0)}
	for i := 0; i < 1000; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		thr := coinThreshold(p)
		if below := float64(thr-1) / (1 << 53); !(below < p) {
			t.Fatalf("p=%v: h>>11 = %d passes the threshold but %v >= p", p, thr-1, below)
		}
		if thr < 1<<53 {
			if at := float64(thr) / (1 << 53); at < p {
				t.Fatalf("p=%v: h>>11 = %d fails the threshold but %v < p", p, thr, at)
			}
		}
	}
}
