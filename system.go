package rfidest

import (
	"fmt"
	"sync/atomic"

	"rfidest/internal/channel"
	"rfidest/internal/faults"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// Distribution selects a tagID distribution for a simulated population
// (the paper's three evaluation sets, Fig. 6).
type Distribution int

const (
	// Uniform tagIDs over [1, 10^15] (the paper's T1).
	Uniform Distribution = iota
	// ApproxNormal — a bounded bell shape (the paper's T2).
	ApproxNormal
	// Normal — truncated normal around the middle of the ID space (T3).
	Normal
)

func (d Distribution) internal() tags.Distribution {
	switch d {
	case Uniform:
		return tags.T1
	case ApproxNormal:
		return tags.T2
	case Normal:
		return tags.T3
	default:
		panic(fmt.Sprintf("rfidest: unknown distribution %d", int(d)))
	}
}

// String names the distribution as in the paper.
func (d Distribution) String() string { return d.internal().String() }

// System is a simulated RFID deployment: a tag population behind a
// time-slotted bit-slot channel with a cost-accounting reader.
//
// Concurrency contract: the population and configuration are immutable
// once built, and each estimation call opens a fresh reader session over
// them, so Run calls are safe to issue from any number of goroutines
// against one shared System — the only cross-session state is the session
// counter, which is advanced atomically. Counter-derived sessions make
// calls independent but their numbering scheduling-dependent; callers that
// need results reproducible under concurrency (the internal/fleet runner)
// address sessions by explicit salt via WithSalt instead.
type System struct {
	n         int
	dist      Distribution
	seed      uint64
	synthetic bool
	hashMode  channel.HashMode
	noisy     bool
	falseBusy float64
	falseIdle float64
	faults    FaultPlan

	pop      *tags.Population // nil when synthetic
	merged   []*System        // non-nil for multi-reader merges (see Merge)
	sessions atomic.Uint64    // counter behind session(); never copied after New
}

// SystemOption configures NewSystem.
type SystemOption func(*System)

// WithDistribution selects the tagID distribution (default Uniform).
func WithDistribution(d Distribution) SystemOption {
	return func(s *System) { s.dist = d }
}

// WithSeed pins all simulation randomness (default 1).
func WithSeed(seed uint64) SystemOption {
	return func(s *System) { s.seed = seed }
}

// WithSynthetic skips materializing tags and samples frames from their
// exact occupancy statistics — fastest, and statistically identical for
// ideal hashing. TagID distribution and hash mode are irrelevant in this
// mode.
func WithSynthetic() SystemOption {
	return func(s *System) { s.synthetic = true }
}

// WithPaperTagHash makes tags run the paper's literal lightweight hash
// (RN ⊕ RS, low bits) and RN-based persistence instead of an ideal mixer.
func WithPaperTagHash() SystemOption {
	return func(s *System) { s.hashMode = channel.PaperXOR }
}

// WithIDHash hashes the tagID itself (rather than the prestored random
// number), exposing the estimator to the raw ID distribution through an
// ideal mixer.
func WithIDHash() SystemOption {
	return func(s *System) { s.hashMode = channel.IdealID }
}

// WithNoise wraps the channel with symmetric per-slot reader errors:
// an idle slot reads busy with probability falseBusy, a busy slot reads
// idle with probability falseIdle. The paper assumes a perfect channel;
// this option exists for robustness studies.
func WithNoise(falseBusy, falseIdle float64) SystemOption {
	return func(s *System) {
		s.noisy = true
		s.falseBusy = falseBusy
		s.falseIdle = falseIdle
	}
}

// FaultPlan configures the deterministic channel-fault injectors of
// WithFaults; see internal/faults for the fault model. The zero plan
// injects nothing.
type FaultPlan = faults.Plan

// FaultSeverity is the one-knob fault plan: rate in [0, 1] scales every
// injector together (burst noise, erasures, truncations, reader stalls).
// FaultSeverity(0) is the zero plan.
func FaultSeverity(rate float64) FaultPlan { return faults.Severity(rate) }

// WithFaults layers the plan's deterministic fault injectors on the
// channel, outermost (after any WithNoise wrapper). Fault schedules derive
// from the system seed and the session salt alone, so equal (system, salt)
// pairs replay identical faults. A zero plan installs nothing.
func WithFaults(plan FaultPlan) SystemOption {
	return func(s *System) { s.faults = plan }
}

// NewSystem builds a simulated deployment of n tags. It panics if n is
// negative or an option is invalid; simulation of populations the channel
// cannot express (n beyond the ID space) also panics.
func NewSystem(n int, opts ...SystemOption) *System {
	s := &System{n: n, seed: 1, hashMode: channel.IdealRN}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.faults.Validate(); err != nil {
		panic(err.Error())
	}
	if !s.synthetic {
		s.pop = tags.Generate(n, s.dist.internal(), xrand.Combine(s.seed, 0x5757))
	}
	return s
}

// N returns the ground-truth cardinality (what estimators try to recover).
func (s *System) N() int { return s.n }

// Distribution returns the system's tagID distribution.
func (s *System) Distribution() Distribution { return s.dist }

// session opens a fresh reader session; each call atomically advances the
// session counter so repeated estimates see independent randomness. Which
// concurrent caller gets which session number is scheduling-dependent;
// sessionAt is the deterministic alternative.
func (s *System) session() *channel.Reader {
	return s.sessionAt(s.sessions.Add(1))
}

// sessionAt opens the reader session addressed by salt. Every per-session
// random stream (frame sampling, channel noise, broadcast seeds) derives
// from (system seed, salt) alone, so equal salts replay identical sessions
// regardless of what other sessions are in flight. The engine is built
// fresh per session; the only state it shares with its siblings is the
// read-only tag population.
func (s *System) sessionAt(salt uint64) *channel.Reader {
	salt = xrand.Combine(s.seed, 0x5e55, salt)
	var eng channel.Engine
	switch {
	case s.merged != nil:
		eng = s.mergedEngine()
	case s.synthetic:
		eng = channel.NewBallsEngine(s.n, salt)
	default:
		eng = channel.NewTagEngine(s.pop, s.hashMode)
	}
	if s.noisy {
		eng = channel.NewNoisyEngine(eng, s.falseBusy, s.falseIdle, salt+1)
	}
	if s.faults.Enabled() {
		eng = faults.New(eng, s.faults, salt+3)
	}
	return channel.NewReader(eng, salt+2)
}
