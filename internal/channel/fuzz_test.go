package channel

import (
	"testing"

	"rfidest/internal/tags"
)

// FuzzEnginesMatchReference: for any frame and any population of up to 64
// tags, both engines' RunFrame, FirstResponse and RunFrameOccupancy equal
// the reference implementations in frame and transmission count.
//
// The inputs decode as follows. mode and dist select the hash mode and
// slot distribution. w is the width, a power of two in [2, 4096] for
// PaperXOR and any width in [1, 4096] otherwise. k is in [1, 20]. An even
// p is a multiple of 1/1024 (the PaperXOR grid, 0 and 1 included) and an
// odd p an off-grid value in [0, 1]. observe is reduced modulo w+1, where
// 0 means the whole frame. An even maxScan is reduced the same way and an
// odd one scans up to the frame's first busy slot. seed seeds the
// population and the frame, and n mod 65 is the population size.
func FuzzEnginesMatchReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(8191), uint8(2), uint16(8), uint16(0), uint16(0), uint64(1), uint8(64))
	f.Add(uint8(2), uint8(0), uint16(12), uint8(2), uint16(2048), uint16(100), uint16(7), uint64(2), uint8(40))
	f.Add(uint8(1), uint8(1), uint16(31), uint8(19), uint16(3001), uint16(0), uint16(3), uint64(3), uint8(17))
	f.Add(uint8(2), uint8(1), uint16(3), uint8(9), uint16(2), uint16(5), uint16(0), uint64(4), uint8(3))
	f.Add(uint8(0), uint8(0), uint16(0), uint8(0), uint16(0), uint16(0), uint16(0), uint64(5), uint8(0))
	f.Fuzz(func(t *testing.T, mode, dist uint8, w uint16, k uint8, p, observe, maxScan uint16, seed uint64, n uint8) {
		m := HashMode(mode % 3)
		req := FrameRequest{
			K:    1 + int(k%20),
			Dist: SlotDist(dist % 2),
			Seed: seed ^ 0x5eed,
		}
		if m == PaperXOR {
			req.W = 2 << (w % 12)
		} else {
			req.W = 1 + int(w%4096)
		}
		if p%2 == 0 {
			req.P = float64((p/2)%1025) / 1024
		} else {
			req.P = float64(p/2) / (1<<15 - 1)
		}
		req.Observe = int(observe) % (req.W + 1)

		size := int(n % 65)
		pop := tags.Generate(size, tags.T1, seed)
		scan := int(maxScan/2) % (req.W + 1)
		if maxScan%2 == 1 {
			scan = firstBusySlot(pop, m, req)
		}
		checkTagFrame(t, "fuzz", NewTagEngine(pop, m), NewTagEngine(pop, m), req, scan)
		checkBallsFrame(t, "fuzz", NewBallsEngine(size, seed), NewBallsEngine(size, seed), req, scan)
	})
}
