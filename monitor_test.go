package rfidest

import (
	"context"
	"math"
	"testing"
)

func TestMonitorFacadeTracksDrift(t *testing.T) {
	m, err := NewMonitor(0.05, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 100000
	for round := 0; round < 5; round++ {
		sys := NewSystem(n, WithSeed(uint64(600+round)))
		est, err := m.Run(context.Background(), sys)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.N-float64(n))/float64(n) > 0.06 {
			t.Fatalf("round %d: estimate %v for n=%d", round, est.N, n)
		}
		n = n * 105 / 100
	}
	if m.Rounds() != 5 {
		t.Fatalf("rounds = %d", m.Rounds())
	}
}

func TestMonitorFastRoundsCheaper(t *testing.T) {
	m, err := NewMonitor(0.05, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys0 := NewSystem(150000, WithSeed(610))
	full, err := m.Run(context.Background(), sys0)
	if err != nil {
		t.Fatal(err)
	}
	sys1 := NewSystem(150000, WithSeed(611))
	fast, err := m.Run(context.Background(), sys1)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Slots != 8192 {
		t.Fatalf("fast round used %d slots, want 8192", fast.Slots)
	}
	if full.Slots <= fast.Slots {
		t.Fatalf("full round (%d slots) not above fast round (%d)", full.Slots, fast.Slots)
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0, 0.05, 0); err == nil {
		t.Fatal("bad epsilon accepted")
	}
	if _, err := NewMonitor(0.05, 0.05, -1); err == nil {
		t.Fatal("negative fastRounds accepted")
	}
	m, err := NewMonitor(0.05, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), nil); err == nil {
		t.Fatal("nil system accepted")
	}
}

func TestMergeEstimatesUnion(t *testing.T) {
	// Two readers with overlapping coverage: [0, 70k) and [40k, 110k) of
	// the same universe — union 110k, overlap 30k.
	a := PopulationAt(700, 0, 70000)
	b := PopulationAt(700, 40000, 70000)
	union, err := Merge(110000, a, b)
	if err != nil {
		t.Fatal(err)
	}
	est, err := union.Run(context.Background(), WithAccuracy(0.05, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.N-110000)/110000 > 0.05 {
		t.Fatalf("union estimate %v, want ~110000", est.N)
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(10); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := Merge(-1, NewSystem(10)); err == nil {
		t.Fatal("negative union accepted")
	}
	if _, err := Merge(10, nil); err == nil {
		t.Fatal("nil sub-system accepted")
	}
	if _, err := Merge(10, NewSystem(10, WithSynthetic())); err == nil {
		t.Fatal("synthetic sub-system accepted")
	}
}

func TestMergedSystemInventoryAndEnergy(t *testing.T) {
	a := PopulationAt(710, 0, 5000)
	b := PopulationAt(710, 2000, 5000)
	union, err := Merge(7000, a, b)
	if err != nil {
		t.Fatal(err)
	}
	est, err := union.Run(context.Background(), WithEstimator("EZB"), WithAccuracy(0.1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.N-7000)/7000 > 0.15 {
		t.Fatalf("EZB over merged system: %v", est.N)
	}
	if est.TagTransmissions <= 0 {
		t.Fatalf("merged system reported no tag transmissions: %d", est.TagTransmissions)
	}
}
