package rfidest

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// saltedEstimates builds a fresh System of n tags under GOMAXPROCS=procs
// and runs every salt's BFCE session twice concurrently on it, returning
// both estimates per salt.
func saltedEstimates(t *testing.T, procs, n int, salts []uint64, opts ...SystemOption) map[uint64][2]Estimate {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	sys := NewSystem(n, append([]SystemOption{WithSeed(42)}, opts...)...)
	out := make(map[uint64][2]Estimate, len(salts))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, salt := range salts {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(salt uint64, rep int) {
				defer wg.Done()
				est, err := sys.Run(context.Background(), WithEstimator("BFCE"), WithAccuracy(0.1, 0.1), WithSalt(salt))
				if err != nil {
					t.Errorf("salt %#x rep %d: %v", salt, rep, err)
					return
				}
				mu.Lock()
				pair := out[salt]
				pair[rep] = est
				out[salt] = pair
				mu.Unlock()
			}(salt, rep)
		}
	}
	wg.Wait()
	return out
}

// requireSameEstimates requires all four estimates per salt of a
// GOMAXPROCS=1 and a GOMAXPROCS=8 run to be bit-identical. Estimate is a
// struct of scalars, so == is bit-exact equality — which is the point:
// equal salts must replay the session exactly, not merely to within
// tolerance.
func requireSameEstimates(t *testing.T, salts []uint64, seq, par map[uint64][2]Estimate) {
	t.Helper()
	if t.Failed() {
		t.FailNow()
	}
	for _, salt := range salts {
		s, p := seq[salt], par[salt]
		if s[0] != s[1] {
			t.Errorf("salt %#x: two runs under GOMAXPROCS=1 differ: %+v vs %+v", salt, s[0], s[1])
		}
		if p[0] != p[1] {
			t.Errorf("salt %#x: two runs under GOMAXPROCS=8 differ: %+v vs %+v", salt, p[0], p[1])
		}
		if s[0] != p[0] {
			t.Errorf("salt %#x: GOMAXPROCS=1 and GOMAXPROCS=8 differ: %+v vs %+v", salt, s[0], p[0])
		}
	}
}

// TestEstimateWithSaltDeterministicAcrossGOMAXPROCS is the end-to-end
// form of the contract the rfidlint analyzers guard statically: a salted
// session is a pure function of (system seed, salt). It runs every salt's
// estimation twice concurrently under GOMAXPROCS=1 and again under
// GOMAXPROCS=8 and requires all four estimates per salt to be
// bit-identical — any wall-clock read, stray randomness source, or
// scheduling-dependent counter on the estimation path shows up here as a
// mismatch.
func TestEstimateWithSaltDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// One shared System per GOMAXPROCS setting, so the runs are fully
	// independent materializations of the same (n, seed) deployment.
	salts := []uint64{0, 1, 7, 0xdecaf, ^uint64(0)}
	requireSameEstimates(t, salts, saltedEstimates(t, 1, 20000, salts), saltedEstimates(t, 8, 20000, salts))
}

// TestShardedEstimatesDeterministicAcrossGOMAXPROCS is the same contract
// at a population of many chunks, where tag-level frames fan out to helper
// goroutines under GOMAXPROCS=8 and run on one goroutine under 1, in both
// the ideal and the paper's tag-side hash.
func TestShardedEstimatesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	salts := []uint64{3, 0xbeef}
	for _, c := range []struct {
		name string
		opts []SystemOption
	}{
		{"IdealRN", nil},
		{"PaperXOR", []SystemOption{WithPaperTagHash()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			seq := saltedEstimates(t, 1, 100000, salts, c.opts...)
			par := saltedEstimates(t, 8, 100000, salts, c.opts...)
			requireSameEstimates(t, salts, seq, par)
		})
	}
}
