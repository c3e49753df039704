package serve_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"rfidest/internal/chaoshttp"
	"rfidest/internal/client"
	"rfidest/internal/serve"
)

// benchChaosServer wraps the serving handler in the fault-injecting
// middleware and returns a resilient client aimed at it.
func benchChaosServer(b *testing.B, plan chaoshttp.Plan, retries int) *client.Client {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	s, err := serve.New(ctx, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(chaoshttp.Middleware(1, plan, s.Handler()))
	b.Cleanup(ts.Close)
	return client.New(client.Config{
		BaseURL:     ts.URL,
		HTTP:        ts.Client(),
		Seed:        1,
		Retries:     retries,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
	})
}

func benchChaosRequest() serve.EstimateRequest {
	salt := uint64(1)
	return serve.EstimateRequest{
		System:  serve.SystemSpec{N: 10000, Seed: 3, Synthetic: true},
		Epsilon: 0.1, Delta: 0.1,
		Salt: &salt,
	}
}

// BenchmarkServeChaosClean is the control: the chaos middleware is mounted
// but draws no faults, so ns/op is the pure overhead of the injection
// layer plus the resilient client over the serving path.
func BenchmarkServeChaosClean(b *testing.B) {
	c := benchChaosServer(b, chaoshttp.Severity(0), 3)
	req := benchChaosRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Estimate(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	report(b, c.Stats())
}

// BenchmarkServeChaosFaulty drives the same request through a faulting
// wire (resets, truncations, 503s — stalls kept short so the benchmark
// measures retry work, not injected sleep) and reports retries/op and
// errors/op alongside the per-success latency. A request can draw faults
// on every attempt, so terminal errors are counted, not fatal.
func BenchmarkServeChaosFaulty(b *testing.B) {
	plan := chaoshttp.Plan{
		Reset: 0.10, Truncate: 0.10, Err5xx: 0.10,
		Stall: 0.05, StallDelay: 2 * time.Millisecond,
		BurstLen: 3,
	}
	c := benchChaosServer(b, plan, 8)
	req := benchChaosRequest()
	errs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Estimate(context.Background(), req); err != nil {
			errs++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(errs)/float64(b.N), "errors/op")
	report(b, c.Stats())
}

func report(b *testing.B, st client.Stats) {
	b.ReportMetric(float64(st.Retries)/float64(b.N), "retries/op")
	b.ReportMetric(float64(st.Shed)/float64(b.N), "sheds/op")
}
