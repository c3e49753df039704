// Package hash provides the hashing substrate shared by every estimator in
// the repository.
//
// RFID counting protocols are built on the assumption that each tag can map
// (tagID, seed) pairs to uniformly distributed values. Real C1G2-class tags
// cannot run cryptographic hashes, so the BFCE paper (§IV-E.2) proposes a
// lightweight tag-side scheme: a 32-bit random number RN is prestored on
// each tag and the hash is the low 13 bits of RN ⊕ RS where RS is a seed
// broadcast by the reader. This package implements both that literal scheme
// (PaperTagHash) and an idealized seeded hash (IDHash) built on a SplitMix64
// finalizer, plus the slot-selection helpers the protocols need (uniform
// slot, geometric "lottery" slot, and p-persistence decisions).
package hash

import (
	"math/bits"

	"rfidest/internal/xrand"
)

// Uniform64 hashes the pair (x, seed) to a uniformly distributed 64-bit
// value. Different seeds give independent hash functions over the same key
// space, which is how protocols obtain their k "independent hash functions".
func Uniform64(x, seed uint64) uint64 {
	return Reseed(Premix(x), seed)
}

// Premix is the seed-independent half of Uniform64:
// Uniform64(x, seed) == Reseed(Premix(x), seed). A caller that hashes one
// key under many seeds (a tag's k slot hashes and persistence coins) mixes
// the key once.
func Premix(x uint64) uint64 {
	return xrand.Mix64(x ^ 0x51_7c_c1_b7_27_22_0a_95)
}

// Reseed finishes Uniform64 for a key already passed through Premix.
func Reseed(pre, seed uint64) uint64 {
	return xrand.Mix64(pre ^ seed)
}

// UniformSlot maps (x, seed) to a slot index in [0, w). w must be positive.
// The mapping is unbiased for any w (fixed-point multiply of the 64-bit
// hash), not just powers of two.
func UniformSlot(x, seed uint64, w int) int {
	if w <= 0 {
		panic("hash: UniformSlot with non-positive w")
	}
	return ScaleSlot(Uniform64(x, seed), w)
}

// ScaleSlot maps a uniform 64-bit hash to a slot index in [0, w) by
// multiply-shift range reduction: floor(h/2^64 * w). The bias for
// w << 2^64 is negligible (< w/2^64) and, unlike masking, works for
// arbitrary w. UniformSlot(x, seed, w) == ScaleSlot(Uniform64(x, seed), w).
func ScaleSlot(h uint64, w int) int {
	hi, _ := bits.Mul64(h, uint64(w))
	return int(hi)
}

// UniformFloat maps (x, seed) to a float in [0, 1) with 53 bits of
// precision. Protocols use it for hash-based persistence decisions, where a
// tag participates iff UniformFloat(id, seed) < p.
func UniformFloat(x, seed uint64) float64 {
	return float64(Uniform64(x, seed)>>11) / (1 << 53)
}

// GeometricSlot maps (x, seed) to a slot index j >= 0 with
// P(j = t) = 2^{-(t+1)}, the geometric distribution used by lottery-frame
// protocols (LOF, PET): slot j is chosen iff the hash has exactly j leading
// zero... more precisely, j trailing failures of a fair coin derived from
// the hash bits. The result is capped at max (the last frame slot absorbs
// the tail), matching how a finite lottery frame is used in practice.
func GeometricSlot(x, seed uint64, max int) int {
	h := Uniform64(x, seed)
	j := 0
	for j < max && h&1 == 0 {
		h >>= 1
		j++
		if j%64 == 0 {
			// Extremely unlikely with max <= 64; rehash for longer runs.
			h = Uniform64(x, seed+uint64(j))
		}
	}
	return j
}

// PaperTagHash is the tag-side hash of BFCE §IV-E.2:
//
//	H(id) = bitget(RN ⊕ RS, 13:1)
//
// i.e. the low 13 bits of the XOR of the tag's prestored 32-bit random
// number with the broadcast 32-bit random seed, yielding a slot in
// [0, 8192). It requires only a bitwise XOR and a mask on the tag.
func PaperTagHash(rn, rs uint32) int {
	return int((rn ^ rs) & 0x1fff)
}

// PaperTagHashW generalizes PaperTagHash to Bloom vectors of any power-of-two
// length w (the paper fixes w = 8192 = 2^13; the w ablation needs other
// sizes). It panics if w is not a power of two in [2, 2^32].
func PaperTagHashW(rn, rs uint32, w int) int {
	if w <= 1 || w&(w-1) != 0 {
		panic("hash: PaperTagHashW requires a power-of-two w > 1")
	}
	return int((rn ^ rs) & uint32(w-1))
}

// PaperPersistence is the tag-side p-persistence rule of §IV-E.3: the tag
// selects 10 bits from its prestored random number (here: 10 bits of RN
// rotated by a per-slot amount so consecutive decisions differ) and
// responds iff the selected value is at most pn−1, giving response
// probability pn/1024 for pn in [1, 1024] — the probability the reader's
// estimate inverts.
//
// The paper's text says "smaller than p_n−1", which would give probability
// (pn−1)/1024 and bias the final estimate by a factor (pn−1)/pn — a 17%
// under-estimate at the small numerators (pn ≈ 6) the optimal-p search
// produces for large populations. That reading cannot be what the authors
// ran (their Fig. 7 shows sub-ε accuracy), so we treat it as an off-by-one
// typo for "not larger than p_n−1"; PaperPersistenceLiteral preserves the
// literal text for the bias study.
func PaperPersistence(rn uint32, rot uint, pn int) bool {
	v := (rn >> (rot % 23)) & 0x3ff // 10 bits
	return int(v) < pn
}

// PaperPersistenceLiteral is §IV-E.3 exactly as printed ("smaller than
// p_n−1"): response probability (pn−1)/1024. Kept to quantify the
// off-by-one bias PaperPersistence documents.
func PaperPersistenceLiteral(rn uint32, rot uint, pn int) bool {
	v := (rn >> (rot % 23)) & 0x3ff // 10 bits
	return int(v) < pn-1
}
