package main

import (
	"time"

	"rfidest"
	"rfidest/internal/goldengrid"
	"rfidest/internal/hash"
	"rfidest/internal/tags"
	"rfidest/internal/xrand"
)

// tagSalts is how many pinned sessions each taglevel system has, by n; one
// cycle runs each of them once. Sorted by cost the cycle's ten estimates
// fall into six groups (n × hash mode) of 10, 10, 20, 20, 20 and 20 %, so
// the latency median and 90th percentile land inside a group, where they
// are steady, and not on a boundary between two, where they are not.
var tagSalts = map[int]uint64{10_000: 1, 100_000: 2, 1_000_000: 2}

// tagSystems are the materialised populations of the taglevel workload:
// n ∈ {1e4, 1e5, 1e6} in both hash modes.
var tagSystems = []sysSpec{
	tagSpec(10_000, false), tagSpec(100_000, false), tagSpec(1_000_000, false),
	tagSpec(10_000, true), tagSpec(100_000, true), tagSpec(1_000_000, true),
}

// tagOp is one estimate of the cycle: a system and a pinned salt.
type tagOp struct {
	sys  int
	salt uint64
}

// taglevel runs tag-level BFCE (Algorithm 2 per tag) on one goroutine.
type taglevel struct {
	seed  uint64
	cycle []tagOp

	systems   []*rfidest.System
	newSystem []time.Duration // NewSystem at n = 1e6, per build

	tr          *tracer
	pops        map[int]*tags.Population // traced path: population by n
	generate    time.Duration            // tags.Generate at n = 1e6
	probeRounds int
}

func newTaglevel(seed uint64) workload {
	var ops []tagOp
	for i := range tagSystems {
		for s := uint64(1); s <= tagSalts[tagSystems[i].n]; s++ {
			ops = append(ops, tagOp{i, s})
		}
	}
	return &taglevel{seed: seed, cycle: shuffled(ops, seed, 0x7a9)}
}

func (t *taglevel) goldens() []goldengrid.Case {
	return append(goldensFor("tag-n20000-seed42"), goldensFor("paperhash-n20000-seed42")...)
}

func (t *taglevel) setup() error {
	t.systems = make([]*rfidest.System, len(tagSystems))
	for i, spec := range tagSystems {
		start := time.Now()
		t.systems[i] = spec.build()
		if spec.n == 1_000_000 {
			t.newSystem = append(t.newSystem, time.Since(start))
		}
	}
	return nil
}

func (t *taglevel) close() { t.systems = nil }

func (t *taglevel) setTracer(tr *tracer) {
	t.tr = tr
	if tr == nil || t.pops != nil {
		return
	}
	t.pops = make(map[int]*tags.Population)
	for _, spec := range tagSystems {
		if t.pops[spec.n] == nil {
			start := time.Now()
			t.pops[spec.n] = spec.population()
			if spec.n == 1_000_000 {
				t.generate = time.Since(start)
			}
		}
	}
}

func (t *taglevel) run(m *meter, window time.Duration) error {
	start := time.Now()
	for {
		c := m.startCycle()
		for _, o := range t.cycle {
			t.estimate(m, o)
		}
		m.endCycle(c)
		if time.Since(start) >= window {
			return nil
		}
	}
}

func (t *taglevel) estimate(m *meter, o tagOp) {
	spec := tagSystems[o.sys]
	key := spec.key("BFCE", o.salt)
	start := time.Now()
	var est rfidest.Estimate
	var err error
	if t.tr == nil {
		est, err = runSalted(t.systems[o.sys], "BFCE", benchEpsilon, benchDelta, o.salt)
	} else {
		est, err = tracedSession(t.tr.scope(), spec, t.pops[spec.n], "BFCE", o.salt, &t.probeRounds)
	}
	lat := time.Since(start)
	m.add(op{key: key, n: spec.n, bfce: true, latency: lat, err: checkPinned(key, est, err), est: est})
}

func (t *taglevel) layers(tr *tracer, out map[string]metric) error {
	st := tr.stats()
	sess := st["estimators.BFCE.session"]
	if sess == nil {
		return errNoSpans("estimators.BFCE.session")
	}
	per := float64(sess.count)
	var frameTime time.Duration
	var frames, tagFrames float64
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		name := "channel.tag.frame.n" + nLabel(n)
		f := st[name]
		if f == nil {
			return errNoSpans(name)
		}
		out["channel.tag.frame_ms.n"+nLabel(n)] = metric{ms(meanOf(st, name)), "ms"}
		frameTime += f.total
		frames += float64(f.count)
		tagFrames += float64(f.count) * float64(n)
	}
	out["channel.tag.ns_per_tag_frame"] = metric{float64(frameTime) / tagFrames, "ns"}
	out["channel.tag.share"] = metric{float64(frameTime) / float64(sess.total), "ratio"}
	out["channel.tag.frames_per_estimate"] = metric{frames / per, "count"}
	for _, ph := range []string{"probe", "rough", "accurate"} {
		var total time.Duration
		if s := st["core."+ph]; s != nil {
			total = s.total
		}
		out["core."+ph+"_ms"] = metric{ms(total) / per, "ms"}
	}
	out["core.self_us"] = metric{us(sess.total-frameTime) / per, "us"}
	out["core.probe_rounds"] = metric{float64(t.probeRounds) / per, "count"}
	out["tags.generate_ms_1e6"] = metric{ms(t.generate), "ms"}
	nsys := make([]float64, len(t.newSystem))
	for i, d := range t.newSystem {
		nsys[i] = ms(d)
	}
	out["rfidest.newsystem_ms"] = metric{median(nsys), "ms"}
	for name, v := range hashProbes(t.seed) {
		out[name] = metric{v, "ns"}
	}
	return nil
}

// hashSink keeps the hash probes' results live.
var hashSink int

// hashProbes times fixed batches of calls into internal/hash, one batch
// per function, and reports the median ns per call of five batches.
func hashProbes(seed uint64) map[string]float64 {
	const batch = 1 << 20
	rng := xrand.NewStream(seed, 0x4a5)
	xs := make([]uint64, 1024)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	probes := map[string]func() int{
		"hash.uniform_slot_ns": func() int {
			s := 0
			for i := 0; i < batch; i++ {
				s += hash.UniformSlot(xs[i&1023], xs[(i+1)&1023], 8192)
			}
			return s
		},
		"hash.paper_slot_ns": func() int {
			s := 0
			for i := 0; i < batch; i++ {
				s += hash.PaperTagHashW(uint32(xs[i&1023]), uint32(i), 8192)
			}
			return s
		},
		"hash.paper_coin_ns": func() int {
			s := 0
			for i := 0; i < batch; i++ {
				if hash.PaperPersistence(uint32(xs[i&1023]), uint(i), 64) {
					s++
				}
			}
			return s
		},
	}
	out := make(map[string]float64)
	for name, f := range probes {
		var ns []float64
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			hashSink += f()
			ns = append(ns, float64(time.Since(start))/batch)
		}
		out[name] = median(ns)
	}
	return out
}
