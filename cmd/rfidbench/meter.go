package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rfidest"
	"rfidest/internal/goldengrid"
)

// workload is one benchmark input set. Its inputs are a fixed cycle derived
// from the workload seed; run always covers whole cycles, so every run does
// the same work per cycle whatever its length.
type workload interface {
	// goldens are the golden-grid cases replayed, untimed, before set-up.
	goldens() []goldengrid.Case
	// setup builds the workload's systems (or server); it is timed, with
	// one warm-up cycle, as setup_s.
	setup() error
	// run executes whole cycles until window has passed; a zero window
	// runs exactly one cycle. Every operation is verified and recorded.
	run(m *meter, window time.Duration) error
	// setTracer routes operations through the traced path (nil: untraced).
	setTracer(tr *tracer)
	// layers adds the per-layer metrics of the traced cycles to out.
	layers(tr *tracer, out map[string]metric) error
	// close releases what setup built.
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) workload{
	"taglevel": newTaglevel,
	"fleet":    newFleet,
	"serve":    newServe,
}

var workloadNames = []string{"taglevel", "fleet", "serve"}

// benchEpsilon and benchDelta are the accuracy target of every estimate
// the workloads request.
const (
	benchEpsilon = 0.05
	benchDelta   = 0.05
)

// goldensFor returns the golden-grid cases run on the named system.
func goldensFor(system string) []goldengrid.Case {
	var out []goldengrid.Case
	for _, c := range goldengrid.Cases() {
		if c.System == system {
			out = append(out, c)
		}
	}
	return out
}

// runSalted is the in-process reference: one pinned-salt run.
func runSalted(sys *rfidest.System, estimator string, epsilon, delta float64, salt uint64) (rfidest.Estimate, error) {
	return sys.Run(context.Background(), rfidest.WithEstimator(estimator),
		rfidest.WithAccuracy(epsilon, delta), rfidest.WithSalt(salt))
}

// op is one verified estimate.
type op struct {
	key     string        // canonical identity of the input: same key, same answer
	n       int           // true population size
	bfce    bool          // the estimate came from BFCE
	latency time.Duration // 0 when the operation has no latency of its own
	err     error         // nil only when the output matched its reference
	est     rfidest.Estimate
}

// meter records the operations of one phase of a run and the process
// counters around its window.
type meter struct {
	ops []op
	// window is the measured wall time; workloads that time their own
	// window (the open-loop generator) overwrite it.
	window time.Duration

	start      time.Time
	stopped    bool
	cpu0, cpu1 time.Duration
	mem0, mem1 runtime.MemStats

	// cycles holds per-cycle rates for workloads that run their cycles
	// back to back; throughput and CPU per estimate are their medians, so
	// a burst of load from a neighbour during one cycle does not move them.
	cycles []cycleRate
}

// cycleRate is one cycle's verified estimates per second and CPU ms per
// estimate.
type cycleRate struct{ perSecond, cpuMs float64 }

// cycleStart marks where a cycle began.
type cycleStart struct {
	wall time.Time
	cpu  time.Duration
	ops  int
}

func (m *meter) startCycle() cycleStart {
	return cycleStart{wall: time.Now(), cpu: processCPU(), ops: len(m.ops)}
}

func (m *meter) endCycle(c cycleStart) {
	wall, cpu := time.Since(c.wall), processCPU()-c.cpu
	ops := m.ops[c.ops:]
	ok := 0
	for _, o := range ops {
		if o.err == nil {
			ok++
		}
	}
	m.cycles = append(m.cycles, cycleRate{
		perSecond: float64(ok) / wall.Seconds(),
		cpuMs:     float64(cpu) / float64(time.Millisecond) / float64(len(ops)),
	})
}

func newMeter() *meter { return &meter{} }

func (m *meter) add(o op) { m.ops = append(m.ops, o) }

func (m *meter) attempted() int { return len(m.ops) }

func (m *meter) failed() int {
	n := 0
	for _, o := range m.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// begin starts the window: garbage from set-up is collected first so it
// is not charged to the measured operations.
func (m *meter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = processCPU()
	m.start = time.Now()
}

// stop ends the window; work after it, such as verifying replies, is not
// charged to the operations. Only the first call counts.
func (m *meter) stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	if m.window == 0 {
		m.window = time.Since(m.start)
	}
	m.cpu1 = processCPU()
	runtime.ReadMemStats(&m.mem1)
}

// endToEnd derives the end-to-end metrics of the window.
func (m *meter) endToEnd() map[string]metric {
	attempted := float64(len(m.ops))
	ok := 0
	for _, o := range m.ops {
		if o.err == nil {
			ok++
		}
	}
	sim := m.simulated()
	out := map[string]metric{
		"estimates_per_s":          {float64(ok) / m.window.Seconds(), "1/s"},
		"latency_p50_ms":           {quantile(m.latencies(), 0.50), "ms"},
		"ok_ratio":                 {float64(ok) / attempted, "ratio"},
		"cpu_ms_per_estimate":      {float64(m.cpu1-m.cpu0) / float64(time.Millisecond) / attempted, "ms"},
		"alloc_bytes_per_estimate": {float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / attempted, "B"},
		"allocs_per_estimate":      {float64(m.mem1.Mallocs-m.mem0.Mallocs) / attempted, "count"},
		"peak_rss_mb":              {peakRSSMB(), "MB"},
	}
	if len(m.cycles) > 0 {
		rates, cpu := make([]float64, len(m.cycles)), make([]float64, len(m.cycles))
		for i, c := range m.cycles {
			rates[i], cpu[i] = c.perSecond, c.cpuMs
		}
		out["estimates_per_s"] = metric{median(rates), "1/s"}
		out["cpu_ms_per_estimate"] = metric{median(cpu), "ms"}
	}
	for k, v := range sim {
		out[k] = v
	}
	return out
}

// latencies returns the operations' latencies in ms, leaving out those
// that have none of their own.
func (m *meter) latencies() []float64 {
	lat := make([]float64, 0, len(m.ops))
	for _, o := range m.ops {
		if o.latency > 0 {
			lat = append(lat, float64(o.latency)/float64(time.Millisecond))
		}
	}
	return lat
}

// simulated derives the simulated-cost and accuracy metrics. An input's
// output is deterministic, so each distinct input counts once, weighted by
// how often it ran divided by the greatest common divisor of those counts.
// Over whole cycles that weight is the input's share of a cycle, whatever
// the number of cycles, and the sums run in key order, not arrival order.
// So every run and every seed, which only reorders the cycle, gives
// bit-identical values.
func (m *meter) simulated() map[string]metric {
	type input struct {
		o     op
		count int
	}
	byKey := make(map[string]*input)
	var keys []string
	g := 0
	for _, o := range m.ops {
		if o.err != nil {
			continue
		}
		in := byKey[o.key]
		if in == nil {
			in = &input{o: o}
			byKey[o.key] = in
			keys = append(keys, o.key)
		}
		in.count++
	}
	for _, in := range byKey {
		g = gcd(g, in.count)
	}
	sort.Strings(keys)
	var count, air, slots, relErr float64
	bfceAir := map[int][2]float64{} // n -> {weighted sum, weight}
	for _, k := range keys {
		in := byKey[k]
		w, est, n := float64(in.count/g), in.o.est, float64(in.o.n)
		count += w
		air += w * est.Seconds
		slots += w * float64(est.Slots)
		relErr += w * math.Abs(est.N-n) / n
		if in.o.bfce {
			a := bfceAir[in.o.n]
			bfceAir[in.o.n] = [2]float64{a[0] + w*est.Seconds, a[1] + w}
		}
	}
	flat := math.NaN()
	if len(bfceAir) > 0 {
		small, large := math.MaxInt, 0
		for n := range bfceAir {
			small, large = min(small, n), max(large, n)
		}
		s, l := bfceAir[small], bfceAir[large]
		flat = (l[0] / l[1]) / (s[0] / s[1])
	}
	return map[string]metric{
		"air_s_per_estimate": {air / count, "sim_s"},
		"slots_per_estimate": {slots / count, "count"},
		"air_s_flatness":     {flat, "ratio"},
		"rel_err_mean":       {relErr / count, "ratio"},
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// sameEstimate reports whether two estimates are bit-identical.
func sameEstimate(a, b rfidest.Estimate) bool {
	return math.Float64bits(a.N) == math.Float64bits(b.N) &&
		math.Float64bits(a.Seconds) == math.Float64bits(b.Seconds) &&
		a.Slots == b.Slots && a.ReaderBits == b.ReaderBits && a.Rounds == b.Rounds &&
		a.Guarded == b.Guarded && a.TagTransmissions == b.TagTransmissions &&
		a.Saturated == b.Saturated && a.Retries == b.Retries
}
