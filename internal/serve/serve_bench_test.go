package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rfidest/internal/serve"
)

// benchBody is the request both benchmarks drive: a synthetic 10k-tag system
// under BFCE(0.1, 0.1) with a pinned salt, so every request replays one
// deterministic session and the benchmark measures serving overhead, not
// estimation variance.
func benchBody(b *testing.B) []byte {
	b.Helper()
	salt := uint64(1)
	body, err := json.Marshal(serve.EstimateRequest{
		System:  serve.SystemSpec{N: 10000, Seed: 3, Synthetic: true},
		Epsilon: 0.1, Delta: 0.1,
		Salt: &salt,
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func benchServer(b *testing.B, cfg serve.Config) *httptest.Server {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	s, err := serve.New(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func post(b *testing.B, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServeEstimateSolo measures one full HTTP round trip per op:
// transport + admission + a direct in-handler Run.
func BenchmarkServeEstimateSolo(b *testing.B) {
	ts := benchServer(b, serve.Config{})
	body := benchBody(b)
	url := ts.URL + "/v1/estimate"
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, client, url, body)
	}
}

// BenchmarkServeEstimateParallel drives the same request from parallel
// closed-loop clients; ns/op is per answered request at saturation.
func BenchmarkServeEstimateParallel(b *testing.B) {
	ts := benchServer(b, serve.Config{MaxInFlight: 64})
	body := benchBody(b)
	url := ts.URL + "/v1/estimate"
	client := ts.Client()
	b.SetParallelism(4) // 4 x GOMAXPROCS concurrent closed-loop clients
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			post(b, client, url, body)
		}
	})
}
