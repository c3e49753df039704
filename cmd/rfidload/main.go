// Command rfidload is a closed-loop load generator for rfidserved: -c
// workers each keep one request in flight against POST /v1/estimate,
// optionally paced to a global -rps target, for -duration. Requests go
// through the resilient client (internal/client): capped exponential
// backoff with full jitter, Retry-After honored on 429/503 sheds, and
// optional hedging for pinned-salt runs. It reports throughput, status
// counts, retry/shed/hedge totals and a latency histogram, and exits
// nonzero under -fail-on-error if any request failed outright — sheds the
// server asked the client to back off from are reported separately, not
// counted as failures:
//
//	rfidload -url http://127.0.0.1:8080 -c 8 -duration 5s
//	rfidload -url "$addr" -c 32 -rps 200 -duration 10s -json
//	rfidload -url "$addr" -salt 7 -hedge 20ms -chaos 0.3 -duration 5s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"rfidest/internal/chaoshttp"
	"rfidest/internal/client"
	"rfidest/internal/serve"
)

type result struct {
	status  int // -1 on transport error, HTTP status otherwise
	shed    bool
	seconds float64
}

type report struct {
	Requests     int            `json:"requests"`
	Errors       int            `json:"errors"` // failures that are not sheds
	Sheds        int            `json:"sheds"`  // terminal 429/503 after retries
	Seconds      float64        `json:"seconds"`
	Throughput   float64        `json:"throughput"` // requests per second
	ByStatus     map[string]int `json:"byStatus"`
	Retries      int64          `json:"retries"`
	ShedReplies  int64          `json:"shedReplies"` // 429/503 replies seen (incl. retried ones)
	Hedges       int64          `json:"hedges"`
	HedgeWins    int64          `json:"hedgeWins"`
	LatencyMsP50 float64        `json:"latencyMsP50"`
	LatencyMsP90 float64        `json:"latencyMsP90"`
	LatencyMsP99 float64        `json:"latencyMsP99"`
	LatencyMsMax float64        `json:"latencyMsMax"`
}

func main() {
	var (
		baseURL   = flag.String("url", "http://127.0.0.1:8080", "rfidserved base URL")
		workers   = flag.Int("c", 8, "concurrent closed-loop workers")
		duration  = flag.Duration("duration", 5*time.Second, "how long to drive load")
		rps       = flag.Float64("rps", 0, "global request-rate target (0 = as fast as the loop closes)")
		n         = flag.Int("n", 10000, "tag population in the request spec")
		synthetic = flag.Bool("synthetic", true, "use a synthetic (non-materialized) population")
		estimator = flag.String("estimator", "BFCE", "estimator to request")
		eps       = flag.Float64("eps", 0.1, "epsilon")
		delta     = flag.Float64("delta", 0.1, "delta")
		salt      = flag.Uint64("salt", 0, "pin every request to this session salt (0 = server assigns per request)")
		retries   = flag.Int("retries", 3, "extra attempts per request on transient failures (-1 disables)")
		hedge     = flag.Duration("hedge", 0, "hedge pinned-salt requests after this delay (0 disables; needs -salt)")
		seed      = flag.Uint64("seed", 1, "client seed: roots the backoff jitter stream")
		chaos     = flag.Float64("chaos", 0, "client-side fault injection severity in [0,1] (0 = clean wire)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the client-side fault schedule")
		jsonOut   = flag.Bool("json", false, "print the report as JSON")
		failOnErr = flag.Bool("fail-on-error", false, "exit 1 if any request failed (CI smoke mode; sheds don't fail)")
	)
	flag.Parse()

	req := serve.EstimateRequest{
		System:    serve.SystemSpec{N: *n, Seed: 3, Synthetic: *synthetic},
		Estimator: *estimator,
		Epsilon:   *eps,
		Delta:     *delta,
	}
	if *salt != 0 {
		req.Salt = salt
	}
	if *hedge > 0 && *salt == 0 {
		fmt.Fprintln(os.Stderr, "rfidload: -hedge needs -salt (an unpinned request is a different session per leg)")
		os.Exit(2)
	}

	httpClient := &http.Client{}
	if *chaos > 0 {
		httpClient.Transport = chaoshttp.Transport(*chaosSeed, chaoshttp.Severity(*chaos), nil)
	}
	c := client.New(client.Config{
		BaseURL:    *baseURL,
		HTTP:       httpClient,
		Seed:       *seed,
		Retries:    *retries,
		HedgeDelay: *hedge,
	})

	// Optional open-loop pacing: a token bucket the workers drain. With
	// rps=0 the bucket is nil and each worker fires as soon as its
	// previous request answers (pure closed loop).
	var pace chan struct{}
	if *rps > 0 {
		pace = make(chan struct{}, *workers)
		interval := time.Duration(float64(time.Second) / *rps)
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for range t.C {
				select {
				case pace <- struct{}{}:
				default: // bucket full: the loop is saturated, drop the token
				}
			}
		}()
	}

	stop := time.After(*duration)
	stopped := make(chan struct{})
	go func() { <-stop; close(stopped) }()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
	)
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []result
			for {
				select {
				case <-stopped:
					mu.Lock()
					results = append(results, local...)
					mu.Unlock()
					return
				default:
				}
				if pace != nil {
					select {
					case <-pace:
					case <-stopped:
						continue
					}
				}
				t0 := time.Now()
				_, err := c.Estimate(context.Background(), req)
				r := result{status: 200, seconds: time.Since(t0).Seconds()}
				if err != nil {
					r.status = -1
					var serr *client.StatusError
					if errors.As(err, &serr) {
						r.status = serr.Status
						r.shed = serr.Status == http.StatusTooManyRequests ||
							serr.Status == http.StatusServiceUnavailable
					}
				}
				local = append(local, r)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := summarize(results, elapsed, c.Stats())
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Printf("requests   %d (%d errors, %d sheds)\n", rep.Requests, rep.Errors, rep.Sheds)
		fmt.Printf("throughput %.1f req/s over %.2fs\n", rep.Throughput, rep.Seconds)
		for code, count := range rep.ByStatus {
			fmt.Printf("  status %s  %d\n", code, count)
		}
		fmt.Printf("resilience retries %d  shed-replies %d  hedges %d  hedge-wins %d\n",
			rep.Retries, rep.ShedReplies, rep.Hedges, rep.HedgeWins)
		fmt.Printf("latency ms p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
			rep.LatencyMsP50, rep.LatencyMsP90, rep.LatencyMsP99, rep.LatencyMsMax)
	}
	if *failOnErr && rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "rfidload: %d of %d requests failed\n", rep.Errors, rep.Requests)
		os.Exit(1)
	}
	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "rfidload: no request completed")
		os.Exit(1)
	}
}

func summarize(results []result, elapsed float64, st client.Stats) report {
	rep := report{
		Requests:    len(results),
		Seconds:     elapsed,
		ByStatus:    make(map[string]int),
		Retries:     st.Retries,
		ShedReplies: st.Shed,
		Hedges:      st.Hedges,
		HedgeWins:   st.HedgeWins,
	}
	if elapsed > 0 {
		rep.Throughput = float64(len(results)) / elapsed
	}
	lat := make([]float64, 0, len(results))
	for _, r := range results {
		key := "transport-error"
		if r.status >= 0 {
			key = fmt.Sprint(r.status)
		}
		rep.ByStatus[key]++
		if r.status < 200 || r.status > 299 {
			// The server asking for backoff (429/503 after retries ran out)
			// is load shedding working, not a failure of the run.
			if r.shed {
				rep.Sheds++
			} else {
				rep.Errors++
			}
			continue
		}
		lat = append(lat, r.seconds*1000)
	}
	if len(lat) == 0 {
		return rep
	}
	sort.Float64s(lat)
	q := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	rep.LatencyMsP50 = q(0.50)
	rep.LatencyMsP90 = q(0.90)
	rep.LatencyMsP99 = q(0.99)
	rep.LatencyMsMax = lat[len(lat)-1]
	return rep
}
