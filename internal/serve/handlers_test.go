package serve

import (
	"runtime"
	"testing"
)

// TestValidateAttempts pins the boundaries of the per-job work cap of
// /v1/batch: trials and trials × (retries+1) may not exceed 1000, and huge
// retry counts are refused without overflowing the product.
func TestValidateAttempts(t *testing.T) {
	for _, c := range []struct {
		trials, retries int
		ok              bool
	}{
		{0, 0, true},
		{0, 999, true},
		{0, 1000, false},
		{1000, 0, true},
		{1000, 1, false},
		{1001, 0, false},
		{500, 1, true},
		{501, 1, false},
		{1, int(^uint(0) >> 1), false},
	} {
		if err := validateAttempts(c.trials, c.retries); (err == nil) != c.ok {
			t.Errorf("validateAttempts(%d, %d) = %v, want ok=%v", c.trials, c.retries, err, c.ok)
		}
	}
}

// TestBatchWorkersClamped: a batch never runs on more workers than
// GOMAXPROCS; 0 keeps its "GOMAXPROCS" meaning.
func TestBatchWorkersClamped(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for requested, want := range map[int]int{
		0:         0,
		1:         1,
		procs:     procs,
		procs + 1: procs,
		1 << 30:   procs,
	} {
		if got := batchWorkers(requested); got != want {
			t.Errorf("batchWorkers(%d) = %d, want %d", requested, got, want)
		}
	}
}
