package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRequestRegistrySnapshot: observations land in the right route cells
// and status classes, and routes render sorted.
func TestRequestRegistrySnapshot(t *testing.T) {
	r := NewRequestRegistry()
	r.Observe("/v1/estimate", 200, 0.002)
	r.Observe("/v1/estimate", 200, 0.004)
	r.Observe("/v1/estimate", 400, 0.0001)
	r.Observe("/v1/batch", 504, 1.5)
	r.InflightAdd(1)
	r.QueueAdd(2)
	r.Rejected()
	r.Panicked()

	s := r.Snapshot()
	if s.Inflight != 1 || s.Queued != 2 || s.Rejected != 1 || s.Panics != 1 {
		t.Errorf("gauges wrong: %+v", s)
	}
	if len(s.Routes) != 2 || s.Routes[0].Route != "/v1/batch" || s.Routes[1].Route != "/v1/estimate" {
		t.Fatalf("routes not sorted: %+v", s.Routes)
	}
	est := s.Routes[1]
	if est.Requests != 3 || est.Status2xx != 2 || est.Status4xx != 1 {
		t.Errorf("estimate route miscounted: %+v", est)
	}
	if got := s.Routes[0].Status5xx; got != 1 {
		t.Errorf("batch route status5xx = %d, want 1", got)
	}
	var total int64
	for _, c := range est.LatencySeconds.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("latency histogram holds %d samples, want 3", total)
	}
}

// TestRequestSnapshotWriteText: the text rendering speaks the same
// "name value" dialect as the estimation snapshot.
func TestRequestSnapshotWriteText(t *testing.T) {
	r := NewRequestRegistry()
	r.Observe("/healthz", 200, 0.0001)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"obs.http.inflight 0\n",
		"obs.http.route./healthz.requests 1\n",
		"obs.http.route./healthz.status2xx 1\n",
		"obs.http.route./healthz.latency_s.count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, out)
		}
	}
}

// TestRequestRegistryConcurrent hammers one registry from many goroutines
// under -race and checks nothing is lost.
func TestRequestRegistryConcurrent(t *testing.T) {
	r := NewRequestRegistry()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.InflightAdd(1)
				r.Observe("/v1/estimate", 200, 0.001)
				r.InflightAdd(-1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Inflight != 0 {
		t.Errorf("inflight = %d, want 0", s.Inflight)
	}
	if got := s.Routes[0].Requests; got != workers*per {
		t.Errorf("requests = %d, want %d", got, workers*per)
	}
}
