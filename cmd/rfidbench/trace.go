package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rfidest/internal/channel"
	"rfidest/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Bounds on what a tracer keeps. Aggregates cover every span; the span
// list written out, and the samples kept for quantiles, stop growing at
// these sizes so a long traced run stays small (a fleet cycle alone closes
// over 100 000 frame spans).
const (
	maxKeptSpans   = 200_000
	maxDursPerName = 100_000
)

// tracer records spans at layer boundaries. It aggregates every span by
// name as it closes and keeps the first maxKeptSpans in memory; write
// saves those when the run ends. It is safe for concurrent use.
type tracer struct {
	epoch time.Time
	ops   atomic.Uint64

	mu      sync.Mutex
	nextID  int
	open    map[int]*openSpan
	byName  map[string]*layerStat
	spans   []span // closed spans, in closing order
	dropped int    // closed spans not kept
}

// openSpan is a span still running, with the time its closed children
// have covered so far.
type openSpan struct {
	span
	child time.Duration
}

// layerStat aggregates the closed spans of one name.
type layerStat struct {
	count int
	total time.Duration   // Σ span durations
	self  time.Duration   // Σ (span − the time its child spans cover)
	durs  []time.Duration // the first maxDursPerName durations
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int]*openSpan), byName: make(map[string]*layerStat)}
}

// newOp returns a fresh operation identifier.
func (t *tracer) newOp() uint64 { return t.ops.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(op uint64, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.open[t.nextID] = &openSpan{span: span{ID: t.nextID, Parent: parent, Op: op, Name: name, Start: start}}
	return t.nextID
}

// end closes the span with the given ID. Children of one span run on the
// goroutine of their operation one after another, so the time they cover
// is the sum of their durations.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.open[id]
	delete(t.open, id)
	s.End = end
	d := s.dur()
	if p := t.open[s.Parent]; p != nil {
		p.child += d
	}
	st := t.byName[s.Name]
	if st == nil {
		st = &layerStat{}
		t.byName[s.Name] = st
	}
	st.count++
	st.total += d
	st.self += d - s.child
	if len(st.durs) < maxDursPerName {
		st.durs = append(st.durs, d)
	}
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s.span)
	} else {
		t.dropped++
	}
}

// stats returns the aggregates by span name.
func (t *tracer) stats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byName
}

// write saves the kept spans, one JSON object per line, to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "rfidbench: %s keeps the first %d of %d spans\n", path, len(t.spans), len(t.spans)+t.dropped)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// scope is the span stack of one operation, driven by a single goroutine.
type scope struct {
	tr    *tracer
	op    uint64
	stack []int
}

func (t *tracer) scope() *scope { return &scope{tr: t, op: t.newOp()} }

func (s *scope) top() int {
	if len(s.stack) == 0 {
		return 0
	}
	return s.stack[len(s.stack)-1]
}

func (s *scope) push(name string) { s.stack = append(s.stack, s.tr.begin(s.op, s.top(), name)) }

func (s *scope) pop() {
	s.tr.end(s.stack[len(s.stack)-1])
	s.stack = s.stack[:len(s.stack)-1]
}

// tracedEngine times every frame of the engine it decorates as a span of
// the current operation. It forwards OccupancyEngine and EnergyMeter, and
// adds nothing else, so a session over it is bit-identical to one over the
// bare engine.
type tracedEngine struct {
	inner tracedInner
	sc    *scope
	frame string // span name of RunFrame and RunFrameOccupancy
	first string // span name of FirstResponse
}

// tracedInner is what the decorated engines (TagEngine, BallsEngine) offer.
type tracedInner interface {
	channel.OccupancyEngine
	channel.EnergyMeter
}

func (e *tracedEngine) RunFrame(req channel.FrameRequest) channel.BitVec {
	e.sc.push(e.frame)
	defer e.sc.pop()
	return e.inner.RunFrame(req)
}

func (e *tracedEngine) RunFrameOccupancy(req channel.FrameRequest) channel.Occupancy {
	e.sc.push(e.frame)
	defer e.sc.pop()
	return e.inner.RunFrameOccupancy(req)
}

func (e *tracedEngine) FirstResponse(req channel.FrameRequest, maxScan int) int {
	e.sc.push(e.first)
	defer e.sc.pop()
	return e.inner.FirstResponse(req, maxScan)
}

func (e *tracedEngine) Size() int { return e.inner.Size() }

func (e *tracedEngine) TagTransmissions() int { return e.inner.TagTransmissions() }

// phaseObserver turns the library's PhaseStart/PhaseEnd hooks into spans
// named core.<phase> and sums the probe rounds BFCE reports. The other
// hooks stay no-ops.
type phaseObserver struct {
	obs.Observer
	sc          *scope
	probeRounds *int
}

func newPhaseObserver(sc *scope, probeRounds *int) *phaseObserver {
	return &phaseObserver{Observer: obs.Nop, sc: sc, probeRounds: probeRounds}
}

func (p *phaseObserver) PhaseStart(ph obs.Phase)            { p.sc.push("core." + ph.String()) }
func (p *phaseObserver) PhaseEnd(obs.Phase, obs.PhaseStats) { p.sc.pop() }
func (p *phaseObserver) ProbeRounds(n int)                  { *p.probeRounds += n }

// sessionObserver times each estimator session of one fleet job from the
// library's SessionOpen/SessionClose hooks, as children of the batch span.
type sessionObserver struct {
	obs.Observer
	tr     *tracer
	op     uint64
	parent int
	open   int
}

func (s *sessionObserver) SessionOpen(string) { s.open = s.tr.begin(s.op, s.parent, "fleet.session") }

func (s *sessionObserver) SessionClose(obs.SessionStats) {
	if s.open > 0 {
		s.tr.end(s.open)
		s.open = 0
	}
}

// ms and us convert a duration to a float in the named unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meanOf returns the mean duration of the named spans (0 when none).
func meanOf(st map[string]*layerStat, name string) time.Duration {
	s := st[name]
	if s == nil || s.count == 0 {
		return 0
	}
	return s.total / time.Duration(s.count)
}

// runTraced is a --trace 1 run. The selected workload runs half its
// window untraced and half traced, which gives the tracing overhead; the
// other workloads then run one traced cycle each, so every per-layer
// metric is reported whichever workload was selected.
func runTraced(o options) (*result, error) {
	out := make(map[string]metric)
	var t tally
	for _, name := range workloadNames {
		if err := traceWorkload(o, name, out, &t); err != nil {
			return nil, err
		}
	}
	return t.result(out), nil
}

// traceWorkload runs one workload's part of a traced run, adds its
// per-layer metrics to out and writes its spans.
func traceWorkload(o options, name string, out map[string]metric, t *tally) error {
	w := workloads[name](o.seed)
	defer w.close()
	if _, err := setUp(w, 1, t); err != nil {
		return err
	}
	tr := newTracer()
	if name == o.workload {
		plain, err := measure(w, o.seconds/2)
		if err != nil {
			return err
		}
		w.setTracer(tr)
		traced, err := measure(w, o.seconds/2)
		if err != nil {
			return err
		}
		t.add(plain.attempted(), plain.failed())
		t.add(traced.attempted(), traced.failed())
		p, q := plain.endToEnd(), traced.endToEnd()
		for _, e := range []string{"estimates_per_s", "latency_p50_ms", "cpu_ms_per_estimate"} {
			out["trace.overhead."+e] = metric{q[e].Value / p[e].Value, "ratio"}
		}
		// The latency tail is reported here, from the untraced half and
		// without a bound: on a shared host it follows the machine's
		// scheduling stalls more than the program (see README.md).
		lat := plain.latencies()
		out["untraced.latency_p90_ms"] = metric{quantile(lat, 0.90), "ms"}
		out["untraced.latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	} else {
		w.setTracer(tr)
		m, err := measure(w, 0)
		if err != nil {
			return err
		}
		t.add(m.attempted(), m.failed())
	}
	if err := w.layers(tr, out); err != nil {
		return err
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d", o.workload, o.seed), name+".jsonl")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
