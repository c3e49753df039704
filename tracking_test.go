package rfidest

import (
	"context"
	"math"
	"testing"
)

func TestInventoryExactAndCostly(t *testing.T) {
	sys := NewSystem(2000, WithSeed(31), WithSynthetic())
	inv, err := sys.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Complete || inv.Identified != 2000 {
		t.Fatalf("inventory incomplete: %+v", inv)
	}
	est, err := sys.Run(context.Background(), WithAccuracy(0.05, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	// Even at 2000 tags, exact identification costs far more air time
	// than one constant-time estimate.
	if inv.Seconds < 10*est.Seconds {
		t.Fatalf("inventory %v s vs estimate %v s — identification too cheap", inv.Seconds, est.Seconds)
	}
}

func TestInventoryTinyPopulationBeatsEstimation(t *testing.T) {
	// The flip side of the paper's scoping (§III-A: exact counting is
	// fast when the cardinality is small).
	sys := NewSystem(20, WithSeed(33), WithSynthetic())
	inv, err := sys.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if inv.Seconds > ConstantTimeBudget() {
		t.Fatalf("inventory of 20 tags (%v s) slower than BFCE's budget", inv.Seconds)
	}
}

func TestPopulationWindowsShareTags(t *testing.T) {
	a := PopulationAt(77, 0, 1000)
	b := PopulationAt(77, 500, 1000)
	if a.N() != 1000 || b.N() != 1000 {
		t.Fatalf("window sizes wrong: %d, %d", a.N(), b.N())
	}
	// Window b's first 500 tags are window a's last 500.
	for i := 0; i < 500; i++ {
		if a.pop.Tags[500+i] != b.pop.Tags[i] {
			t.Fatalf("windows do not share tag %d", i)
		}
	}
}

func TestTrackerArrivalsDepartures(t *testing.T) {
	tr, err := NewTracker(100000, 41)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: tags [0, 100k). Round 2: tags [30k, 125k) — 30k departed,
	// 25k arrived.
	s1, err := tr.Snapshot(PopulationAt(88, 0, 100000))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tr.Snapshot(PopulationAt(88, 30000, 95000))
	if err != nil {
		t.Fatal(err)
	}
	if c := s1.Cardinality(); math.Abs(c-100000)/100000 > 0.05 {
		t.Fatalf("snapshot 1 cardinality %v", c)
	}
	dep, err := Departures(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := Arrivals(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dep-30000) > 10000 {
		t.Fatalf("departures %v, want ~30000", dep)
	}
	if math.Abs(arr-25000) > 10000 {
		t.Fatalf("arrivals %v, want ~25000", arr)
	}
	u, err := Union(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-125000)/125000 > 0.05 {
		t.Fatalf("union %v, want ~125000", u)
	}
	inter, err := Intersection(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inter-70000) > 12000 {
		t.Fatalf("intersection %v, want ~70000", inter)
	}
}

func TestTrackerRejectsSynthetic(t *testing.T) {
	tr, err := NewTracker(1000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Snapshot(NewSystem(1000, WithSynthetic())); err == nil {
		t.Fatal("synthetic system accepted for tracking")
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := Union(nil, nil); err == nil {
		t.Fatal("nil snapshots accepted")
	}
	if _, err := Arrivals(nil, nil); err == nil {
		t.Fatal("nil snapshots accepted")
	}
	if _, err := Departures(nil, nil); err == nil {
		t.Fatal("nil snapshots accepted")
	}
	if _, err := Intersection(nil, nil); err == nil {
		t.Fatal("nil snapshots accepted")
	}
}

func TestPopulationAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative window did not panic")
		}
	}()
	PopulationAt(1, -1, 10)
}
