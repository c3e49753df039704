package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// requestLatencyBounds bracket the serving layer's latency SLO: BFCE's
// in-process run is sub-millisecond on commodity hardware, the micro-batch
// window adds single-digit milliseconds, and anything past a second is an
// overload artifact worth its own bucket.
var requestLatencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// RequestRegistry is the serving-layer sibling of Registry: request-level
// counters and latency histograms, keyed by route. Like Registry it is
// lock-cheap — hot-path observations land in atomics, with a read-mostly
// map guard around the per-route table — and safe for any number of
// concurrent requests. The zero value is not ready; construct with
// NewRequestRegistry.
type RequestRegistry struct {
	inflight atomic.Int64 // requests admitted and not yet answered
	queued   atomic.Int64 // requests waiting in the admission queue
	rejected atomic.Int64 // requests refused by admission control (429)
	panics   atomic.Int64 // handler panics isolated by the middleware

	mu     sync.RWMutex
	routes map[string]*routeMetrics

	bmu      sync.RWMutex
	breakers map[string]*breakerCell
}

// breakerCell is the per-estimator circuit-breaker accounting: trips,
// requests shed while open/half-open, and the current state gauge
// (0 closed, 1 open, 2 half-open).
type breakerCell struct {
	trips atomic.Int64
	shed  atomic.Int64
	state atomic.Int64
}

type routeMetrics struct {
	requests atomic.Int64
	classes  [6]atomic.Int64 // status/100; [0] collects malformed codes
	latency  *Histogram
}

// NewRequestRegistry returns an empty request-metrics registry.
func NewRequestRegistry() *RequestRegistry {
	return &RequestRegistry{routes: make(map[string]*routeMetrics)}
}

// route returns the per-route cell, creating it on first use.
func (r *RequestRegistry) route(name string) *routeMetrics {
	r.mu.RLock()
	m := r.routes[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.routes[name]; m == nil {
		m = &routeMetrics{latency: NewHistogram(requestLatencyBounds...)}
		r.routes[name] = m
	}
	return m
}

// Observe records one answered request: its route, final status code and
// wall-clock latency in seconds.
func (r *RequestRegistry) Observe(route string, status int, seconds float64) {
	m := r.route(route)
	m.requests.Add(1)
	class := status / 100
	if class < 0 || class >= len(m.classes) {
		class = 0
	}
	m.classes[class].Add(1)
	m.latency.Observe(seconds)
}

// InflightAdd moves the in-flight gauge; call with +1 at admission and -1
// when the response is written.
func (r *RequestRegistry) InflightAdd(delta int64) { r.inflight.Add(delta) }

// QueueAdd moves the admission-queue gauge; call with +1 when a request
// starts waiting for an execution slot and -1 when it stops (admitted or
// abandoned).
func (r *RequestRegistry) QueueAdd(delta int64) { r.queued.Add(delta) }

// Rejected counts one request refused by admission control.
func (r *RequestRegistry) Rejected() { r.rejected.Add(1) }

// breaker returns the per-estimator breaker cell, creating it on first use.
func (r *RequestRegistry) breaker(estimator string) *breakerCell {
	r.bmu.RLock()
	c := r.breakers[estimator]
	r.bmu.RUnlock()
	if c != nil {
		return c
	}
	r.bmu.Lock()
	defer r.bmu.Unlock()
	if r.breakers == nil {
		r.breakers = make(map[string]*breakerCell)
	}
	if c = r.breakers[estimator]; c == nil {
		c = &breakerCell{}
		r.breakers[estimator] = c
	}
	return c
}

// BreakerTrip counts one closed→open (or half-open→open) transition of
// the named estimator's circuit breaker.
func (r *RequestRegistry) BreakerTrip(estimator string) { r.breaker(estimator).trips.Add(1) }

// BreakerShed counts one request refused because the named estimator's
// breaker was open or half-open.
func (r *RequestRegistry) BreakerShed(estimator string) { r.breaker(estimator).shed.Add(1) }

// BreakerState records the named estimator's current breaker state gauge
// (0 closed, 1 open, 2 half-open).
func (r *RequestRegistry) BreakerState(estimator string, state int64) {
	r.breaker(estimator).state.Store(state)
}

// Panicked counts one handler panic isolated by the recovery middleware.
func (r *RequestRegistry) Panicked() { r.panics.Add(1) }

// RequestSnapshot is a point-in-time copy of a RequestRegistry. Routes are
// sorted by name so identical states render identically.
type RequestSnapshot struct {
	Inflight int64             `json:"inflight"`
	Queued   int64             `json:"queued"`
	Rejected int64             `json:"rejected"`
	Panics   int64             `json:"panics"`
	Routes   []RouteSnapshot   `json:"routes"`
	Breakers []BreakerSnapshot `json:"breakers,omitempty"`
}

// BreakerSnapshot is the per-estimator circuit-breaker accounting.
type BreakerSnapshot struct {
	Estimator string `json:"estimator"`
	Trips     int64  `json:"trips"`
	Shed      int64  `json:"shed"`
	State     int64  `json:"state"` // 0 closed, 1 open, 2 half-open
}

// RouteSnapshot is the per-route request accounting.
type RouteSnapshot struct {
	Route       string `json:"route"`
	Requests    int64  `json:"requests"`
	Status2xx   int64  `json:"status2xx"`
	Status3xx   int64  `json:"status3xx,omitempty"`
	Status4xx   int64  `json:"status4xx,omitempty"`
	Status5xx   int64  `json:"status5xx,omitempty"`
	StatusOther int64  `json:"statusOther,omitempty"`
	// Batched is always 0: the server no longer coalesces requests. The
	// field stays because cmd/rfidbench reads it.
	Batched        int64             `json:"batched,omitempty"`
	LatencySeconds HistogramSnapshot `json:"latency_s"`
}

// Snapshot copies the registry's current state. Like Registry.Snapshot,
// counters are read individually: a snapshot under load is consistent per
// counter, not across counters.
func (r *RequestRegistry) Snapshot() RequestSnapshot {
	s := RequestSnapshot{
		Inflight: r.inflight.Load(),
		Queued:   r.queued.Load(),
		Rejected: r.rejected.Load(),
		Panics:   r.panics.Load(),
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.routes))
	for name := range r.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.routes[name]
		s.Routes = append(s.Routes, RouteSnapshot{
			Route:          name,
			Requests:       m.requests.Load(),
			Status2xx:      m.classes[2].Load(),
			Status3xx:      m.classes[3].Load(),
			Status4xx:      m.classes[4].Load(),
			Status5xx:      m.classes[5].Load(),
			StatusOther:    m.classes[0].Load() + m.classes[1].Load(),
			LatencySeconds: m.latency.snapshot(),
		})
	}
	r.mu.RUnlock()
	r.bmu.RLock()
	bnames := make([]string, 0, len(r.breakers))
	for name := range r.breakers {
		bnames = append(bnames, name)
	}
	sort.Strings(bnames)
	for _, name := range bnames {
		c := r.breakers[name]
		s.Breakers = append(s.Breakers, BreakerSnapshot{
			Estimator: name,
			Trips:     c.trips.Load(),
			Shed:      c.shed.Load(),
			State:     c.state.Load(),
		})
	}
	r.bmu.RUnlock()
	return s
}

// WriteText renders the snapshot as expvar-style "name value" lines in the
// same dialect as Snapshot.WriteText, under the obs.http prefix.
func (s RequestSnapshot) WriteText(w io.Writer) error {
	tw := &textWriter{w: w}
	tw.line("obs.http.inflight", s.Inflight)
	tw.line("obs.http.queued", s.Queued)
	tw.line("obs.http.rejected", s.Rejected)
	tw.line("obs.http.panics", s.Panics)
	for _, rt := range s.Routes {
		prefix := "obs.http.route." + rt.Route
		tw.line(prefix+".requests", rt.Requests)
		tw.line(prefix+".status2xx", rt.Status2xx)
		tw.line(prefix+".status3xx", rt.Status3xx)
		tw.line(prefix+".status4xx", rt.Status4xx)
		tw.line(prefix+".status5xx", rt.Status5xx)
		tw.line(prefix+".status_other", rt.StatusOther)
		tw.histogram(prefix+".latency_s", rt.LatencySeconds)
	}
	for _, bk := range s.Breakers {
		prefix := "obs.http.breaker." + bk.Estimator
		tw.line(prefix+".trips", bk.Trips)
		tw.line(prefix+".shed", bk.Shed)
		tw.line(prefix+".state", bk.State)
	}
	return tw.err
}
