package main

import (
	"context"
	"fmt"
	"os"

	"rfidest"
	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/obs"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// populationSeed is the simulation seed of every system the workloads
// build. It is part of the workload definition, not of its input cycle:
// the outputs of every (system, estimator, salt) the cycles draw from are
// pinned in pins.go, which fixes the populations.
const populationSeed = 2015

// sysSpec is one deployment a workload estimates.
type sysSpec struct {
	kind      string // "tag-ideal", "tag-paper" or "balls"
	n         int
	seed      uint64
	synthetic bool
	paper     bool
}

func tagSpec(n int, paper bool) sysSpec {
	kind := "tag-ideal"
	if paper {
		kind = "tag-paper"
	}
	return sysSpec{kind: kind, n: n, seed: populationSeed, paper: paper}
}

func ballsSpec(n int) sysSpec {
	return sysSpec{kind: "balls", n: n, seed: populationSeed, synthetic: true}
}

func (s sysSpec) build() *rfidest.System {
	opts := []rfidest.SystemOption{rfidest.WithSeed(s.seed)}
	if s.synthetic {
		opts = append(opts, rfidest.WithSynthetic())
	}
	if s.paper {
		opts = append(opts, rfidest.WithPaperTagHash())
	}
	return rfidest.NewSystem(s.n, opts...)
}

// key names one pinned output: system, estimator and session salt.
func (s sysSpec) key(estimator string, salt uint64) string {
	return fmt.Sprintf("%s/n%d/%s/salt%d", s.kind, s.n, estimator, salt)
}

// nLabel is the short form of a power-of-ten n used in metric names (1e4,
// 1e5, 1e6).
func nLabel(n int) string { return fmt.Sprintf("1e%d", len(fmt.Sprint(n))-1) }

// population regenerates the tag population a System built from s holds.
func (s sysSpec) population() *tags.Population {
	return tags.Generate(s.n, tags.T1, xrand.Combine(s.seed, 0x5757))
}

// checkPinned verifies est against the value pinned for key.
func checkPinned(key string, est rfidest.Estimate, err error) error {
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfidbench: %s: %v\n", key, err)
		return err
	}
	want, ok := pins[key]
	if !ok {
		fmt.Fprintf(os.Stderr, "rfidbench: %s: no pinned output\n", key)
		return fmt.Errorf("%s: %w", key, errMismatch)
	}
	if !sameEstimate(est, want) {
		fmt.Fprintf(os.Stderr, "rfidbench: %s: got %+v, pinned %+v\n", key, est, want)
		return fmt.Errorf("%s: %w", key, errMismatch)
	}
	return nil
}

// sessionSalt is the session salt System.Run(WithSalt(salt)) derives for
// a system built from spec (System.sessionAt).
func sessionSalt(spec sysSpec, salt uint64) uint64 { return xrand.Combine(spec.seed, 0x5e55, salt) }

// tracedSession reproduces System.Run(WithSalt) for a system built from
// spec — the session wiring of System.sessionAt for a noise- and
// fault-free system — with the engine wrapped in a tracedEngine. With a
// non-nil probeRounds the library's phase hooks become spans too. pop is
// the system's population (nil for synthetic systems). The result must
// equal the untraced run's bit for bit; the caller checks it against the
// pins.
func tracedSession(sc *scope, spec sysSpec, pop *tags.Population, estimator string, salt uint64, probeRounds *int) (rfidest.Estimate, error) {
	sc.push("estimators." + estimator + ".session")
	defer sc.pop()
	session := sessionSalt(spec, salt)
	eng := &tracedEngine{sc: sc, first: "channel.first_response"}
	if spec.synthetic {
		eng.inner = channel.NewBallsEngine(spec.n, session)
		eng.frame = "channel.balls.frame"
	} else {
		mode := channel.IdealRN
		if spec.paper {
			mode = channel.PaperXOR
		}
		eng.inner = channel.NewTagEngine(pop, mode)
		eng.frame = "channel.tag.frame.n" + nLabel(spec.n)
	}
	var o obs.Observer
	if probeRounds != nil {
		o = newPhaseObserver(sc, probeRounds)
	}
	return runSession(eng, session, estimator, o)
}

// runSession runs one estimator session over eng the way System.Run does
// for a session salt, without System.Run around it. A nil observer leaves
// the session uninstrumented.
func runSession(eng channel.Engine, session uint64, estimator string, o obs.Observer) (rfidest.Estimate, error) {
	r := channel.NewReader(eng, session+2)
	if o != nil {
		r.SetObserver(o)
	}
	est, err := estimators.New(estimator)
	if err != nil {
		return rfidest.Estimate{}, err
	}
	st, err := estimators.AsStepper(est, estimators.Accuracy{Epsilon: benchEpsilon, Delta: benchDelta})
	if err != nil {
		return rfidest.Estimate{}, err
	}
	res, err := estimators.Run(context.Background(), r, st)
	if err != nil {
		return rfidest.Estimate{}, err
	}
	return rfidest.Estimate{
		N:                res.Estimate,
		Seconds:          res.Seconds,
		Slots:            res.Slots,
		ReaderBits:       res.Cost.ReaderBits,
		Rounds:           res.Rounds,
		Guarded:          res.Guarded,
		Saturated:        res.Saturated,
		TagTransmissions: r.TagTransmissions(),
	}, nil
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](xs []T, seed uint64, domain uint64) []T {
	out := append([]T(nil), xs...)
	rng := xrand.NewStream(seed, domain)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
