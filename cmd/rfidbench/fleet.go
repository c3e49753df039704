package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"rfidest"
	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/fleet"
	"rfidest/internal/goldengrid"
	"rfidest/internal/obs"
)

// fleetSalts is how many pinned sessions each (system, estimator) pair of
// the fleet workload has; one batch runs each of them once.
const fleetSalts = 4

// fleetWorkers is the pooled mode's worker count. One worker keeps the
// second core free for the garbage collector and for neighbours, which is
// what makes the fleet figures repeatable on a small host.
const fleetWorkers = 1

// fleetSystems are the synthetic (balls-into-bins) systems of the fleet
// workload; the serve workload estimates the same systems.
var fleetSystems = []sysSpec{ballsSpec(10_000), ballsSpec(1_000_000)}

// fleetJob is one job of the batch.
type fleetJob struct {
	sys       int
	estimator string
	salt      uint64
}

// errReportsDiffer marks a batch whose pooled and interleaved reports
// disagree.
var errReportsDiffer = errors.New("pooled and interleaved reports differ")

// fleetBench runs batches of all registry estimators through fleet.Run,
// alternating pooled and interleaved mode over the same jobs.
type fleetBench struct {
	seed  uint64
	cycle []fleetJob

	systems []*rfidest.System
	jobs    []fleet.Job

	tr          *tracer
	schedRounds int
	schedJobs   int
}

// ballsFrame is one frame a session ran on a balls engine.
type ballsFrame struct {
	n    int
	seed uint64
	req  channel.FrameRequest
}

func newFleet(seed uint64) workload {
	var jobs []fleetJob
	for i := range fleetSystems {
		for _, name := range estimators.Names() {
			for s := uint64(1); s <= fleetSalts; s++ {
				jobs = append(jobs, fleetJob{i, name, s})
			}
		}
	}
	return &fleetBench{seed: seed, cycle: shuffled(jobs, seed, 0xf1ee7)}
}

func (f *fleetBench) goldens() []goldengrid.Case { return goldensFor("synthetic-n50000-seed7") }

func (f *fleetBench) setup() error {
	f.systems = make([]*rfidest.System, len(fleetSystems))
	for i, spec := range fleetSystems {
		f.systems[i] = spec.build()
	}
	f.jobs = make([]fleet.Job, len(f.cycle))
	for i, j := range f.cycle {
		f.jobs[i] = fleet.Job{
			System:    f.systems[j.sys],
			Estimator: j.estimator,
			Epsilon:   benchEpsilon,
			Delta:     benchDelta,
			Options:   []rfidest.Option{rfidest.WithSeedSalt(j.salt)},
		}
	}
	return nil
}

func (f *fleetBench) close() { f.systems, f.jobs = nil, nil }

func (f *fleetBench) setTracer(tr *tracer) { f.tr = tr }

func (f *fleetBench) run(m *meter, window time.Duration) error {
	start := time.Now()
	for {
		c := m.startCycle()
		pooled, err := f.batch(m, false)
		if err != nil {
			return err
		}
		from := len(m.ops)
		interleaved, err := f.batch(m, true)
		if err != nil {
			return err
		}
		if !sameReport(pooled, interleaved) {
			fmt.Fprintln(os.Stderr, "rfidbench: fleet:", errReportsDiffer)
			for i := from; i < len(m.ops); i++ {
				m.ops[i].err = errReportsDiffer
			}
		}
		if f.tr != nil {
			f.tracedPass(m)
		}
		m.endCycle(c)
		if time.Since(start) >= window {
			return nil
		}
	}
}

// batch runs the cycle's jobs as one fleet batch and verifies every job.
// In pooled mode the single worker runs the jobs one after another, so a
// job's latency is the time from the previous job's completion to its own,
// as the batch's OnJobDone hook sees them. Interleaved sessions advance in
// turns and have no latency of their own; they count in throughput only.
func (f *fleetBench) batch(m *meter, interleave bool) (*fleet.Report, error) {
	cfg := fleet.Config{Workers: fleetWorkers, Seed: f.seed, Interleave: interleave}
	jobs := f.jobs
	var done []time.Time
	if !interleave {
		done = make([]time.Time, len(jobs))
		cfg.OnJobDone = func(r fleet.JobResult) { done[r.Index] = time.Now() }
	}
	var batchSpan int
	if f.tr != nil {
		opID := f.tr.newOp()
		name := "fleet.pooled_batch"
		if interleave {
			name = "sched.interleaved_batch"
		}
		batchSpan = f.tr.begin(opID, 0, name)
		if !interleave {
			// Session spans come from the library's own hooks; in
			// interleaved mode sessions overlap, so only the batch is timed.
			jobs = append([]fleet.Job(nil), f.jobs...)
			for i := range jobs {
				jobs[i].Observer = &sessionObserver{Observer: obs.Nop, tr: f.tr, op: opID, parent: batchSpan}
			}
		}
	}
	start := time.Now()
	rep, err := fleet.Run(context.Background(), cfg, jobs)
	if f.tr != nil {
		f.tr.end(batchSpan)
		if interleave {
			f.schedRounds += rep.SchedRounds
			f.schedJobs += len(jobs)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("fleet batch: %w", err)
	}
	latency := make([]time.Duration, len(jobs))
	if done != nil {
		order := make([]int, len(done))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return done[order[a]].Before(done[order[b]]) })
		prev := start
		for _, i := range order {
			latency[i], prev = done[i].Sub(prev), done[i]
		}
	}
	for i, jr := range rep.Jobs {
		j := f.cycle[i]
		spec := fleetSystems[j.sys]
		key := spec.key(j.estimator, j.salt)
		var est rfidest.Estimate
		err := jr.Err
		if err == nil && len(jr.Estimates) != 1 {
			err = fmt.Errorf("job %s returned %d estimates, want 1", key, len(jr.Estimates))
		}
		if err == nil {
			est = jr.Estimates[0]
		}
		m.add(op{key: key, n: spec.n, bfce: j.estimator == "BFCE", latency: latency[i], err: checkPinned(key, est, err), est: est})
	}
	return rep, nil
}

// tracedPass runs every job of the cycle once more through the traced
// session path, on this goroutine, so estimator and engine time can be
// told apart.
func (f *fleetBench) tracedPass(m *meter) {
	for _, j := range f.cycle {
		spec := fleetSystems[j.sys]
		key := spec.key(j.estimator, j.salt)
		start := time.Now()
		est, err := tracedSession(f.tr.scope(), spec, nil, j.estimator, j.salt, nil)
		lat := time.Since(start)
		m.add(op{key: key, n: spec.n, bfce: j.estimator == "BFCE", latency: lat, err: checkPinned(key, est, err), est: est})
	}
}

// sameReport compares two reports of one batch, leaving out the wall-clock
// fields, the scheduler's round count (pooled mode has none) and each
// job's echo of its input (whose options are functions).
func sameReport(a, b *fleet.Report) bool {
	strip := func(r *fleet.Report) fleet.Report {
		c := *r
		c.WallSeconds, c.Throughput, c.SchedRounds = 0, 0, 0
		c.Jobs = append([]fleet.JobResult(nil), r.Jobs...)
		for i := range c.Jobs {
			c.Jobs[i].Job = fleet.Job{}
		}
		return c
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

func (f *fleetBench) layers(tr *tracer, out map[string]metric) error {
	st := tr.stats()
	pooled, inter, sess := st["fleet.pooled_batch"], st["sched.interleaved_batch"], st["fleet.session"]
	if pooled == nil || inter == nil || sess == nil {
		return errNoSpans("fleet batch")
	}
	out["fleet.pooled_batch_ms"] = metric{ms(meanOf(st, "fleet.pooled_batch")), "ms"}
	out["sched.interleaved_batch_ms"] = metric{ms(meanOf(st, "sched.interleaved_batch")), "ms"}
	out["fleet.worker_busy_ratio"] = metric{float64(sess.total) / (fleetWorkers * float64(pooled.total)), "ratio"}
	// Both modes run the same sessions; what the scheduler adds shows as
	// interleaved wall time beyond the pooled sessions' busy time, scaled
	// to the number of batches each side ran.
	out["sched.overhead_ratio"] = metric{
		(float64(inter.total) / float64(inter.count)) / (float64(sess.total) / float64(pooled.count)), "ratio"}
	out["sched.rounds_per_session"] = metric{float64(f.schedRounds) / float64(f.schedJobs), "count"}

	var sessTime, engine time.Duration
	for _, name := range estimators.Names() {
		s := st["estimators."+name+".session"]
		if s == nil {
			return errNoSpans("estimators." + name + ".session")
		}
		out["estimators."+name+".session_us"] = metric{us(s.total) / float64(s.count), "us"}
		out["estimators."+name+".self_us"] = metric{us(s.self) / float64(s.count), "us"}
		sessTime += s.total
		engine += s.total - s.self
	}
	frames := st["channel.balls.frame"]
	if frames == nil {
		return errNoSpans("channel.balls.frame")
	}
	out["channel.balls.frame_us"] = metric{us(meanOf(st, "channel.balls.frame")), "us"}
	out["channel.balls.share"] = metric{float64(engine) / float64(sessTime), "ratio"}
	out["channel.first_response_us"] = metric{us(meanOf(st, "channel.first_response")), "us"}

	bytes, allocs, err := f.ballsAllocs()
	if err != nil {
		return err
	}
	out["channel.balls.bytes_per_frame"] = metric{bytes, "B"}
	out["channel.balls.allocs_per_frame"] = metric{allocs, "count"}
	overhead, err := f.runOverhead()
	if err != nil {
		return err
	}
	out["rfidest.run_overhead_us"] = metric{overhead, "us"}
	return nil
}

// ballsAllocs reruns the sessions of one cycle over recording engines,
// then replays every balls frame they ran on fresh engines and reports the
// heap bytes and allocations per frame.
func (f *fleetBench) ballsAllocs() (bytes, allocs float64, err error) {
	var frames []ballsFrame
	for _, j := range f.cycle {
		spec := fleetSystems[j.sys]
		session := sessionSalt(spec, j.salt)
		rec := &recordingEngine{BallsEngine: channel.NewBallsEngine(spec.n, session)}
		if _, err := runSession(rec, session, j.estimator, nil); err != nil {
			return 0, 0, err
		}
		for _, req := range rec.reqs {
			frames = append(frames, ballsFrame{n: spec.n, seed: session, req: req})
		}
	}
	engines := make([]*channel.BallsEngine, len(frames))
	for i, fr := range frames {
		engines[i] = channel.NewBallsEngine(fr.n, fr.seed)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, fr := range frames {
		engines[i].RunFrame(fr.req)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(frames))
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

// recordingEngine keeps the requests of the frames it runs.
type recordingEngine struct {
	*channel.BallsEngine
	reqs []channel.FrameRequest
}

func (e *recordingEngine) RunFrame(req channel.FrameRequest) channel.BitVec {
	e.reqs = append(e.reqs, req)
	return e.BallsEngine.RunFrame(req)
}

// runOverhead is System.Run's cost beyond the estimator session it wraps:
// every job of the cycle is timed through System.Run(WithSalt) and as a
// bare session over the same engine, best of three each, and the mean
// difference is reported in µs.
func (f *fleetBench) runOverhead() (float64, error) {
	var diff time.Duration
	for _, j := range f.cycle {
		spec := fleetSystems[j.sys]
		key := spec.key(j.estimator, j.salt)
		session := sessionSalt(spec, j.salt)
		bestRun, bestBare := time.Duration(1<<62), time.Duration(1<<62)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			est, err := runSalted(f.systems[j.sys], j.estimator, benchEpsilon, benchDelta, j.salt)
			bestRun = min(bestRun, time.Since(start))
			if err := checkPinned(key, est, err); err != nil {
				return 0, err
			}
			start = time.Now()
			est, err = runSession(channel.NewBallsEngine(spec.n, session), session, j.estimator, nil)
			bestBare = min(bestBare, time.Since(start))
			if err := checkPinned(key, est, err); err != nil {
				return 0, err
			}
		}
		diff += bestRun - bestBare
	}
	return us(diff) / float64(len(f.cycle)), nil
}
