package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rfidest"
	"rfidest/internal/checkpoint"
	"rfidest/internal/goldengrid"
	"rfidest/internal/serve"
)

const (
	// serveRate is the open-loop offered load in requests per second. At
	// about 2.5 ms per batched request the two connections could carry
	// roughly four times as much, so the server keeps up and the latency
	// percentiles measure service time, not a growing backlog.
	serveRate = 200
	// serveConns is how many connections carry the load; request k of
	// the schedule goes out on connection k mod serveConns.
	serveConns = 2
	// serveCycle is the number of requests in one cycle: serveSalts
	// estimates per system, three times over, plus serveMonitorRounds
	// rounds of each monitor.
	serveCycle         = 100
	serveSalts         = 15
	serveMonitorRounds = 5
	// monitorFastRounds is how many rounds a monitor may skip the rough
	// phase between full rounds.
	monitorFastRounds = 3
	// opHeader carries the operation ID of a traced request, so the
	// server-side span joins the client's.
	opHeader = "X-Bench-Op"
)

// serveMonitors are the named monitors of the serve workload, one per
// fleet system. Monitor m is driven on connection m mod serveConns only,
// so its rounds reach the server in the order they were scheduled.
var serveMonitors = []struct {
	name string
	sys  int
}{{"dock-1e4", 0}, {"dock-1e6", 1}}

// serveReq is one scheduled request of the cycle.
type serveReq struct {
	monitor int // index into serveMonitors, or -1 for an estimate
	sys     int
	salt    uint64 // estimates only; monitor salts follow the round count
}

// call is one request of a run, with its outcome.
type call struct {
	req     serveReq
	seq     int    // position in the run's schedule
	salt    uint64 // the session salt the request pins
	op      uint64 // trace operation ID (0 untraced)
	latency time.Duration
	done    time.Time     // when the reply (or the error) arrived
	lag     time.Duration // how late the send ran against its due time
	err     error
	est     rfidest.Estimate
	rounds  int                  // monitor responses only
	warm    rfidest.MonitorState // monitor responses only
}

// serveBench drives an in-process server with the default configuration
// and a checkpoint store, open loop, on a loopback listener.
type serveBench struct {
	cycle  []serveReq
	expect map[serveReq]rfidest.Estimate // in-process reference per estimate
	refErr error

	builds   int
	dir      string
	store    *checkpoint.Store
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	url      string
	client   *http.Client
	rounds   []int              // monitor rounds sent so far, per monitor
	mirrors  []*rfidest.Monitor // in-process replicas of the monitors
	systems  []*rfidest.System
	lastRun  []*call
	tr       atomic.Pointer[tracer]
	shutdown bool
	warming  bool // the next run is set-up's warm-up cycle
}

func newServe(seed uint64) workload {
	s := &serveBench{expect: make(map[serveReq]rfidest.Estimate)}
	var estimates []serveReq
	for rep := 0; rep < 3; rep++ {
		for sys := range fleetSystems {
			for salt := uint64(1); salt <= serveSalts; salt++ {
				estimates = append(estimates, serveReq{monitor: -1, sys: sys, salt: salt})
			}
		}
	}
	estimates = shuffled(estimates, seed, 0x5e7e)
	s.cycle = make([]serveReq, serveCycle)
	taken := make([]bool, serveCycle)
	for m, mon := range serveMonitors {
		var slots []int
		for k := m % serveConns; k < serveCycle; k += serveConns {
			slots = append(slots, k)
		}
		for _, k := range shuffled(slots, seed, 0x303+uint64(m))[:serveMonitorRounds] {
			s.cycle[k] = serveReq{monitor: m, sys: mon.sys}
			taken[k] = true
		}
	}
	for k := range s.cycle {
		if !taken[k] {
			s.cycle[k], estimates = estimates[0], estimates[1:]
		}
	}
	// The reference answers are computed here, untimed, in-process.
	s.systems = make([]*rfidest.System, len(fleetSystems))
	for i, spec := range fleetSystems {
		s.systems[i] = spec.build()
	}
	for _, r := range s.cycle {
		if r.monitor >= 0 {
			continue
		}
		if _, ok := s.expect[r]; ok {
			continue
		}
		est, err := runSalted(s.systems[r.sys], "BFCE", benchEpsilon, benchDelta, r.salt)
		if err != nil {
			s.refErr = err
		}
		s.expect[r] = est
	}
	return s
}

func (s *serveBench) goldens() []goldengrid.Case { return nil }

// setup boots the server: checkpoint Open on a fresh state directory,
// serve.New with the default Config plus the wall clock the daemon also
// injects, and a loopback listener.
func (s *serveBench) setup() error {
	if s.refErr != nil {
		return s.refErr
	}
	s.builds++
	s.dir = filepath.Join(".bench_build", fmt.Sprintf("serve-state-%d-%d", os.Getpid(), s.builds))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	store, err := checkpoint.Open(s.dir, checkpoint.Config{})
	if err != nil {
		return err
	}
	srv, err := serve.New(context.Background(), serve.Config{Now: time.Now, Checkpoint: store})
	if err != nil {
		_ = store.Close() // the New error is the one to report
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the Listen error is the one to report
		_ = store.Close()
		return err
	}
	s.store, s.srv, s.shutdown, s.warming = store, srv, false, true
	s.hs = &http.Server{Handler: s.timed(srv.Handler())}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
	s.rounds = make([]int, len(serveMonitors))
	s.mirrors = make([]*rfidest.Monitor, len(serveMonitors))
	for m := range serveMonitors {
		if s.mirrors[m], err = rfidest.NewMonitor(benchEpsilon, benchDelta, monitorFastRounds); err != nil {
			return err
		}
	}
	return nil
}

// stop shuts the server down and closes its store, keeping the state
// directory. It returns once the serving goroutine has exited.
func (s *serveBench) stop() error {
	if s.srv == nil || s.shutdown {
		return nil
	}
	s.shutdown = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{s.hs.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	s.client.CloseIdleConnections()
	errs = append(errs, s.srv.Shutdown(ctx), s.store.Close())
	return errors.Join(errs...)
}

func (s *serveBench) close() {
	if err := s.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "rfidbench: serve shutdown:", err)
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch state; a leftover is harmless
	}
	s.srv = nil
}

func (s *serveBench) setTracer(tr *tracer) { s.tr.Store(tr) }

// timed wraps the server's handler so a traced run records a span per
// request, joined to the client's by the operation header.
func (s *serveBench) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		op, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if tr == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		name := "serve.estimate.handler"
		if r.URL.Path == "/v1/monitor" {
			name = "serve.monitor.handler"
		}
		id := tr.begin(op, 0, name)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// run sends whole cycles on the open-loop schedule — request k is due at
// k/serveRate after the start — and times each from its due time. The
// window ends when the last response arrives; the replies are verified
// after that, untimed. Set-up's warm-up cycle goes out back to back
// instead, so set-up time measures the server's work, not the schedule.
func (s *serveBench) run(m *meter, window time.Duration) error {
	paced := !s.warming
	s.warming = false
	cycles := max(1, int((window.Seconds()*serveRate+serveCycle-1)/serveCycle))
	calls := make([]*call, 0, cycles*serveCycle)
	perConn := make([][]*call, serveConns)
	for c := 0; c < cycles; c++ {
		for _, r := range s.cycle {
			cl := &call{req: r, seq: len(calls), salt: r.salt}
			if r.monitor >= 0 {
				s.rounds[r.monitor]++
				cl.salt = monitorSalt(r.monitor, s.rounds[r.monitor])
			}
			calls = append(calls, cl)
			perConn[cl.seq%serveConns] = append(perConn[cl.seq%serveConns], cl)
		}
	}
	tr := s.tr.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for _, conn := range perConn {
		wg.Add(1)
		go func(conn []*call) {
			defer wg.Done()
			for _, cl := range conn {
				s.send(tr, start, cl, paced)
			}
		}(conn)
	}
	wg.Wait()
	var last time.Time
	for _, cl := range calls {
		if cl.done.After(last) {
			last = cl.done
		}
	}
	m.window = last.Sub(start)
	m.stop()
	s.verify(calls)
	for _, cl := range calls {
		o := op{key: fmt.Sprintf("balls/n%d/BFCE/salt%d", fleetSystems[cl.req.sys].n, cl.salt),
			n: fleetSystems[cl.req.sys].n, bfce: cl.req.monitor < 0, latency: cl.latency, err: cl.err, est: cl.est}
		if cl.req.monitor >= 0 {
			o.key = fmt.Sprintf("monitor/%s/salt%d", serveMonitors[cl.req.monitor].name, cl.salt)
		}
		m.add(o)
	}
	s.lastRun = calls
	return nil
}

// monitorSalt pins round r of monitor m.
func monitorSalt(m, r int) uint64 { return uint64(m+1)<<32 | uint64(r) }

// send waits for the call's due time, posts it and decodes the reply.
// Unpaced, a call is due when the previous one on its connection ends.
func (s *serveBench) send(tr *tracer, start time.Time, cl *call, paced bool) {
	due := time.Now()
	if paced {
		due = start.Add(time.Duration(cl.seq) * time.Second / serveRate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
	}
	sent := time.Now()
	cl.lag = sent.Sub(due)
	spec := fleetSystems[cl.req.sys]
	sys := serve.SystemSpec{N: spec.n, Seed: spec.seed, Synthetic: true}
	salt := cl.salt
	path, body := "/v1/estimate", any(serve.EstimateRequest{System: sys, Epsilon: benchEpsilon, Delta: benchDelta, Salt: &salt})
	if cl.req.monitor >= 0 {
		path, body = "/v1/monitor", serve.MonitorRequest{Name: serveMonitors[cl.req.monitor].name, System: sys,
			Epsilon: benchEpsilon, Delta: benchDelta, FastRounds: monitorFastRounds, Salt: &salt}
	}
	var span int
	if tr != nil {
		cl.op = tr.newOp()
		span = tr.begin(cl.op, 0, "serve.request")
	}
	reply, err := s.post(path, body, cl.op)
	if tr != nil {
		tr.end(span)
	}
	cl.done = time.Now()
	cl.latency = cl.done.Sub(due)
	if err != nil {
		cl.err = err
		return
	}
	if cl.req.monitor < 0 {
		var resp serve.EstimateResponse
		if cl.err = json.Unmarshal(reply, &resp); cl.err == nil {
			cl.est = resp.Estimate
			if resp.Salt != salt {
				cl.err = fmt.Errorf("estimate answered under salt %d, sent %d", resp.Salt, salt)
			}
		}
		return
	}
	var resp serve.MonitorResponse
	if cl.err = json.Unmarshal(reply, &resp); cl.err == nil {
		cl.est, cl.rounds, cl.warm = resp.Estimate, resp.Rounds, resp.Warm
	}
}

// post sends one JSON request and returns the body of a 200 reply.
func (s *serveBench) post(path string, body any, op uint64) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, nil
}

// verify checks every reply: estimates against the in-process reference
// run, monitor rounds against in-process replicas fed the same rounds in
// the same order.
func (s *serveBench) verify(calls []*call) {
	for _, cl := range calls {
		if cl.err != nil {
			fmt.Fprintln(os.Stderr, "rfidbench: serve:", cl.err)
			continue
		}
		if cl.req.monitor < 0 {
			if !sameEstimate(cl.est, s.expect[cl.req]) {
				cl.err = fmt.Errorf("estimate salt %d: %w", cl.salt, errMismatch)
			}
		} else {
			mon := s.mirrors[cl.req.monitor]
			want, err := mon.Run(context.Background(), s.systems[cl.req.sys], rfidest.WithSeedSalt(cl.salt))
			switch {
			case err != nil:
				cl.err = err
			case !sameEstimate(cl.est, want) || cl.rounds != mon.Rounds() || cl.warm != mon.Snapshot():
				cl.err = fmt.Errorf("monitor %s salt %d: %w", serveMonitors[cl.req.monitor].name, cl.salt, errMismatch)
			}
		}
		if cl.err != nil {
			fmt.Fprintln(os.Stderr, "rfidbench: serve:", cl.err)
		}
	}
}

func (s *serveBench) layers(tr *tracer, out map[string]metric) error {
	st := tr.stats()
	est, mon, req := st["serve.estimate.handler"], st["serve.monitor.handler"], st["serve.request"]
	if est == nil || mon == nil || req == nil {
		return errNoSpans("serve")
	}
	out["serve.estimate.handler_us_p50"] = metric{durQuantile(est.durs, 0.5, time.Microsecond), "us"}
	out["serve.estimate.handler_us_p99"] = metric{durQuantile(est.durs, 0.99, time.Microsecond), "us"}
	out["serve.monitor.handler_us_p50"] = metric{durQuantile(mon.durs, 0.5, time.Microsecond), "us"}
	out["serve.wire_us_p50"] = metric{wireQuantile(tr, 0.5), "us"}

	snap := s.srv.Requests().Snapshot()
	var estimates, batched, shed int64
	for _, r := range snap.Routes {
		if r.Route == "/v1/estimate" {
			estimates, batched = r.Requests, r.Batched
		}
	}
	for _, b := range snap.Breakers {
		shed += b.Shed
	}
	out["serve.batched_ratio"] = metric{float64(batched) / float64(estimates), "ratio"}
	out["serve.rejected"] = metric{float64(snap.Rejected), "count"}
	out["serve.breaker_shed"] = metric{float64(shed), "count"}

	var lags []time.Duration
	for _, cl := range s.lastRun {
		lags = append(lags, cl.lag)
	}
	out["loadgen.lag_ms_p99"] = metric{durQuantile(lags, 0.99, time.Millisecond), "ms"}
	return s.checkpointLayers(out)
}

// wireQuantile is the q-quantile over traced requests of the client's
// round trip minus the server handler's span, in µs.
func wireQuantile(tr *tracer, q float64) float64 {
	tr.mu.Lock()
	handler := make(map[uint64]time.Duration)
	client := make(map[uint64]time.Duration)
	for _, sp := range tr.spans {
		switch sp.Name {
		case "serve.estimate.handler", "serve.monitor.handler":
			handler[sp.Op] = sp.dur()
		case "serve.request":
			client[sp.Op] = sp.dur()
		}
	}
	tr.mu.Unlock()
	var wire []time.Duration
	for op, c := range client {
		if h, ok := handler[op]; ok {
			wire = append(wire, c-h)
		}
	}
	return durQuantile(wire, q, time.Microsecond)
}

// checkpointLayers times the durable store on a fresh directory, so the
// log is not compacted under the measurement: PutMonitor with the monitor
// states the run left in the server's store, the log bytes each such round
// adds, and recovery (snapshot plus log replay) of the resulting directory.
func (s *serveBench) checkpointLayers(out map[string]metric) error {
	states := s.store.State().Monitors
	if err := s.stop(); err != nil {
		return err
	}
	var names []string
	for name := range states {
		names = append(names, name)
	}
	if len(names) == 0 {
		return errors.New("serve run left no monitor state")
	}
	sort.Strings(names)
	dir := s.dir + "-probe"
	defer os.RemoveAll(dir)
	probe, err := checkpoint.Open(dir, checkpoint.Config{CompactEvery: -1})
	if err != nil {
		return err
	}
	defer probe.Close()
	const puts = 200
	var took []time.Duration
	for i := 0; i < puts; i++ {
		name := names[i%len(names)]
		start := time.Now()
		if err := probe.PutMonitor(name, states[name]); err != nil {
			return err
		}
		took = append(took, time.Since(start))
	}
	fi, err := os.Stat(filepath.Join(dir, "state.wal"))
	if err != nil {
		return err
	}
	out["checkpoint.put_us_p50"] = metric{durQuantile(took, 0.5, time.Microsecond), "us"}
	out["checkpoint.wal_bytes_per_round"] = metric{float64(fi.Size()) / puts, "B"}

	var recover []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		st, err := checkpoint.Open(dir, checkpoint.Config{CompactEvery: -1})
		recover = append(recover, ms(time.Since(start)))
		if err != nil {
			return err
		}
		// A store that appended nothing closes without compacting, so the
		// next Open replays the same log.
		if err := st.Close(); err != nil {
			return err
		}
	}
	out["checkpoint.recover_ms"] = metric{median(recover), "ms"}
	return nil
}
