package channel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rfidest/internal/tags"
)

// Sharded frames. A population of several chunks with a ragged tail is
// split between the caller and free helper slots; every entry point must
// match the slot-first reference (reference_test.go) to the bit, with equal
// transmission metering, at any core count, under any schedule and when
// every helper slot is taken.

// shardPopN spans three full chunks and a ragged fourth.
const shardPopN = 3*shardChunk + 1234

// refFrame is the reference outcome of one request at every entry point,
// with the transmissions each one meters.
type refFrame struct {
	label                  string
	req                    FrameRequest
	maxScan                int
	busy                   refVec
	first                  int
	occ                    Occupancy
	busyTx, firstTx, occTx int
}

// newRefFrame runs req through the reference entry points of a fresh engine.
func newRefFrame(pop *tags.Population, mode HashMode, req FrameRequest, maxScan int, label string) *refFrame {
	ref := NewTagEngine(pop, mode)
	f := &refFrame{req: req, maxScan: maxScan, label: fmt.Sprintf("%s %v %+v", label, mode, req)}
	f.busy = ref.refRunFrame(req)
	f.busyTx = ref.transmissions
	f.first = ref.refFirstResponse(req, maxScan)
	f.firstTx = ref.transmissions - f.busyTx
	f.occ = ref.refRunFrameOccupancy(req)
	f.occTx = ref.transmissions - f.busyTx - f.firstTx
	return f
}

// diff runs f's request through all three entry points of e and describes
// the first disagreement with the reference, or returns "".
func (f *refFrame) diff(e *TagEngine) string {
	tx := e.TagTransmissions()
	vec := e.RunFrame(f.req)
	if !vec.Equal(FromBools(f.busy)) {
		return fmt.Sprintf("%s: RunFrame differs from the reference", f.label)
	}
	if got := e.TagTransmissions() - tx; got != f.busyTx {
		return fmt.Sprintf("%s: RunFrame metered %d transmissions, ref %d", f.label, got, f.busyTx)
	}
	tx = e.TagTransmissions()
	if got := e.FirstResponse(f.req, f.maxScan); got != f.first {
		return fmt.Sprintf("%s: FirstResponse(maxScan %d) = %d, ref %d", f.label, f.maxScan, got, f.first)
	}
	if got := e.TagTransmissions() - tx; got != f.firstTx {
		return fmt.Sprintf("%s: FirstResponse metered %d transmissions, ref %d", f.label, got, f.firstTx)
	}
	tx = e.TagTransmissions()
	occ := e.RunFrameOccupancy(f.req)
	if len(occ) != len(f.occ) {
		return fmt.Sprintf("%s: occupancy length %d, ref %d", f.label, len(occ), len(f.occ))
	}
	for i := range occ {
		if occ[i] != f.occ[i] {
			return fmt.Sprintf("%s: occupancy slot %d is %v, ref %v", f.label, i, occ[i], f.occ[i])
		}
	}
	if got := e.TagTransmissions() - tx; got != f.occTx {
		return fmt.Sprintf("%s: RunFrameOccupancy metered %d transmissions, ref %d", f.label, got, f.occTx)
	}
	return ""
}

// shardFrames draws requests over pop with their reference outcomes:
// rounds passes, per hash mode, over every persistence class and slot
// distribution of randomReq's space — p ∈ {0, 1/1024, 4/1024, random, 1}
// × {Uniform, Geometric} — each with a random k ∈ [1, 20], width and
// observed prefix. Every other FirstResponse limit sits exactly at the
// frame's first busy slot.
func shardFrames(pop *tags.Population, seed int64, rounds int) map[HashMode][]*refFrame {
	rng := rand.New(rand.NewSource(seed))
	frames := make(map[HashMode][]*refFrame)
	for _, mode := range allModes {
		for round := 0; round < rounds; round++ {
			for _, dist := range []SlotDist{Uniform, Geometric} {
				for _, p := range []float64{0, 1.0 / 1024, 4.0 / 1024, -1, 1} {
					req := randomReq(rng, mode)
					req.Dist, req.P = dist, p
					if p < 0 {
						req.P = rng.Float64()
					}
					maxScan := rng.Intn(req.W + 1)
					if len(frames[mode])%2 == 0 {
						maxScan = firstBusySlot(pop, mode, req)
					}
					label := fmt.Sprintf("frame %d", len(frames[mode]))
					frames[mode] = append(frames[mode], newRefFrame(pop, mode, req, maxScan, label))
				}
			}
		}
	}
	return frames
}

// holdHelpers claims every helper slot, as engines running concurrent
// frames would, and returns the release.
func holdHelpers(t *testing.T) (release func()) {
	t.Helper()
	for i := range helpers {
		if !helpers[i].claimed.CompareAndSwap(false, true) {
			t.Fatalf("helper slot %d is claimed outside any frame", i)
		}
	}
	return func() {
		for i := range helpers {
			helpers[i].claimed.Store(false)
		}
	}
}

func TestShardedTagEngineMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pop := tags.Generate(shardPopN, tags.T1, 71)
	frames := shardFrames(pop, 20261018, 2)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, mode := range allModes {
			e := NewTagEngine(pop, mode)
			for _, f := range frames[mode] {
				if d := f.diff(e); d != "" {
					t.Fatalf("GOMAXPROCS %d: %s", procs, d)
				}
			}
		}
	}
}

func TestShardedFramesFallBackWhenHelpersAreTaken(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pop := tags.Generate(shardPopN, tags.T2, 72)
	frames := shardFrames(pop, 72, 1)

	// Every slot held: each frame runs on its caller alone.
	release := holdHelpers(t)
	for _, mode := range allModes {
		e := NewTagEngine(pop, mode)
		for _, f := range frames[mode] {
			if d := f.diff(e); d != "" {
				release()
				t.Fatalf("all helpers taken: %s", d)
			}
		}
	}
	for i := range helpers {
		if helpers[i].job != nil {
			release()
			t.Fatalf("helper slot %d served a frame while held", i)
		}
	}
	release()

	// Concurrent engines over the shared population compete for the
	// slots, so some frames get helpers and some run alone.
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, mode := range allModes {
					e := NewTagEngine(pop, mode)
					for _, f := range frames[mode] {
						if d := f.diff(e); d != "" {
							t.Errorf("GOMAXPROCS %d, engine %d: %s", procs, g, d)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestShardedFramesAllocateOnlyTheirResult(t *testing.T) {
	// testing.AllocsPerRun pins GOMAXPROCS to 1, where frames never shard,
	// so this gate brackets frames with runtime.ReadMemStats instead.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		w      = 8192
		frames = 10
	)
	req := FrameRequest{W: w, K: 3, P: 4.0 / 1024}
	pop := tags.Generate(100000, tags.T1, 73)
	goroutines := runtime.NumGoroutine()

	// measure returns the mallocs and bytes of frames calls of f.
	measure := func(f func()) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			req.Seed = uint64(i)
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	vecAllocs, vecBytes := measure(func() { sinkVec = NewBitVec(w) })
	occAllocs, occBytes := measure(func() { sinkOcc = make(Occupancy, w) })

	// Starting a goroutine allocates its descriptor when the runtime's free
	// lists are empty, which in a warm process is rare but not never. Warm
	// them, and give each entry point a few windows: a frame that allocated
	// would do so in every one.
	warm := NewTagEngine(tags.Generate(2*shardChunk+1, tags.T1, 74), IdealRN)
	for i := 0; i < 300; i++ {
		req.Seed = uint64(i)
		sinkVec = warm.RunFrame(req)
	}
	for _, mode := range allModes {
		e := NewTagEngine(pop, mode)
		for _, c := range []struct {
			name          string
			frame         func()
			allocs, bytes uint64
		}{
			{"RunFrame", func() { sinkVec = e.RunFrame(req) }, vecAllocs, vecBytes},
			{"RunFrameOccupancy", func() { sinkOcc = e.RunFrameOccupancy(req) }, occAllocs, occBytes},
			{"FirstResponse", func() { sinkInt = e.FirstResponse(req, 0) }, 0, 0},
		} {
			var allocs, bytes uint64
			for window := 0; window < 3; window++ {
				if allocs, bytes = measure(c.frame); allocs <= c.allocs && bytes <= c.bytes {
					break
				}
			}
			if allocs > c.allocs || bytes > c.bytes {
				t.Errorf("TagEngine(%v).%s: %d frames made %d allocs of %d B, their results %d allocs of %d B",
					mode, c.name, frames, allocs, bytes, c.allocs, c.bytes)
			}
		}
	}

	// Helpers are joined before a frame returns; one that has signalled
	// may still be unwinding, so give the count a moment to settle.
	for i := 0; runtime.NumGoroutine() > goroutines && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after sharded frames, %d before", n, goroutines)
	}
}
