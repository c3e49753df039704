// Command rfidbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one of three workloads — taglevel, fleet or serve (see README.md
// for why each exists) — for a fixed measurement window and prints every
// metric by name and unit, followed by a one-line JSON result:
//
//	rfidbench --workload taglevel --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer metrics from a traced run
// instead, together with the tracing overhead against an untraced pass of
// the same workload; the spans are written to .bench_build when the run
// ends.
//
// Every operation's output is checked bit-for-bit against values pinned
// with the benchmark (pins.go) or computed in-process. A wrong answer is a
// failed operation, and any failure makes the run exit with status 1.
// Infrastructure errors (bad flags, a server that cannot start) exit with
// status 2 and print no result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"rfidest"
	"rfidest/internal/goldengrid"
)

// setupReps is how many times a run builds its workload from scratch; the
// reported setup_s is their median, so one slow build does not move it.
const setupReps = 3

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; equal seeds give equal inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	if err := o.validate(trace); err != nil {
		fmt.Fprintln(os.Stderr, "rfidbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfidbench:", err)
		os.Exit(2)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfidbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func (o options) validate(trace int) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(o.seconds > 0) || o.seconds > 600 {
		return fmt.Errorf("--seconds must be in (0, 600], got %v", o.seconds)
	}
	return nil
}

// run executes one benchmark run and assembles its result.
func run(o options) (*result, error) {
	if o.trace {
		return runTraced(o)
	}
	w := workloads[o.workload](o.seed)
	defer w.close()
	tally, err := sanity(w)
	if err != nil {
		return nil, err
	}
	setups, err := setUp(w, setupReps, &tally)
	if err != nil {
		return nil, err
	}
	m, err := measure(w, o.seconds)
	if err != nil {
		return nil, err
	}
	tally.add(m.attempted(), m.failed())
	metrics := m.endToEnd()
	metrics["setup_s"] = metric{median(setups), "s"}
	return tally.result(metrics), nil
}

// tally counts verified operations across the phases of a run: the
// untimed sanity replay, every warm-up cycle and the measured window.
type tally struct{ attempted, failed int }

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

func (t tally) result(metrics map[string]metric) *result {
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON cannot carry them; a metric with no defined value is
			// reported as 0 and flagged on standard error.
			fmt.Fprintf(os.Stderr, "rfidbench: metric %s is undefined in this run\n", name)
			metrics[name] = metric{0, m.Unit}
		}
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// sanity replays the golden-grid cases that belong to the workload,
// untimed, before anything is measured.
func sanity(w workload) (tally, error) {
	var t tally
	systems := make(map[string]*rfidest.System)
	for _, c := range w.goldens() {
		sys := systems[c.System]
		if sys == nil {
			var err error
			if sys, err = goldengrid.NewSystem(c.System); err != nil {
				return t, err
			}
			systems[c.System] = sys
		}
		got, err := runSalted(sys, c.Estimator, goldengrid.Epsilon, goldengrid.Delta, c.Salt)
		t.attempted++
		if err != nil || !sameEstimate(got, c.Want) {
			t.failed++
			fmt.Fprintf(os.Stderr, "rfidbench: golden case %s/%s salt %#x: got %+v (err %v), want %+v\n",
				c.System, c.Estimator, c.Salt, got, err, c.Want)
		}
	}
	return t, nil
}

// setUp builds the workload reps times, each time with one warm-up cycle,
// and returns the wall time of each build. The last build stays up.
func setUp(w workload, reps int, t *tally) ([]float64, error) {
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.close()
			// Return the last build's memory first, so each build starts
			// from the same heap and peak RSS counts one build.
			debug.FreeOSMemory()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		warm := newMeter()
		if err := w.run(warm, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		t.add(warm.attempted(), warm.failed())
	}
	return setups, nil
}

// measure runs the workload for at least seconds, over whole cycles, and
// brackets the window with process CPU and allocation counters.
func measure(w workload, seconds float64) (*meter, error) {
	m := newMeter()
	m.begin()
	if err := w.run(m, time.Duration(seconds*float64(time.Second))); err != nil {
		return nil, err
	}
	m.stop()
	return m, nil
}

func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-44s %16d\n%-44s %16d\n", "attempted", res.Attempted, "failed", res.Failed)
}

// errMismatch marks an operation whose output differs from its reference.
var errMismatch = errors.New("output differs from the reference")

// errNoSpans reports a traced run that recorded no span of a layer it
// must cover.
func errNoSpans(name string) error { return fmt.Errorf("traced run recorded no %s spans", name) }
