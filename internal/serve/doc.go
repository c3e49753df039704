// Package serve is the network serving layer: an HTTP/JSON front over the
// estimation stack, built on net/http only.
//
// Endpoints:
//
//	POST   /v1/estimate  one (system, estimator, ε, δ, salt) estimation
//	POST   /v1/batch     a fleet batch (pooled or interleaved scheduling)
//	POST   /v1/monitor   the next round of a named, durable monitor
//	DELETE /v1/monitor   drop a named monitor
//	GET    /v1/metrics   estimation + request metrics (text or JSON)
//	GET    /healthz      liveness
//	GET    /readyz       readiness (503 while recovering, draining or a
//	                     breaker is open)
//
// The layer adds serving concerns without touching estimation semantics:
//
//   - Determinism is preserved end to end. A request may pin its session
//     salt; requests that do not are assigned one derived from the server
//     seed and an admission sequence number, and the assigned salt is
//     echoed in the response so any result can be replayed bit-identically
//     — over HTTP or with an in-process Run. No wall clock or process
//     randomness enters the estimation path; the only wall-clock reads are
//     an injected clock used for latency metrics.
//
//   - Admission control bounds the work in flight: MaxInFlight requests
//     execute, QueueDepth more may wait, and everything beyond that is
//     refused immediately with 429 and a Retry-After hint, so overload
//     degrades by shedding rather than queue collapse.
//
//   - Every estimate runs as one System.Run in its handler. A BFCE
//     estimate is a fixed-cost computation with nothing to share with its
//     neighbours, so there is no coalescing. A /v1/batch request's work
//     is bounded too: at most MaxBatchJobs jobs, at most 1000 sessions
//     per job (trials × (retries+1)), on at most GOMAXPROCS workers.
//
//   - Failures map onto the transport: unknown estimators and malformed
//     specs are 400 (rfidest.ErrUnknownEstimator is detected with
//     errors.Is), admission overflow is 429, deadline expiry is 504,
//     draining is 503, and handler panics are isolated to 500 responses
//     and counted, never taking the process down.
//
//   - Shutdown drains: intake stops (work endpoints return 503, /readyz
//     goes unready), in-flight sessions run to completion — every
//     session is bounded in rounds — and if the caller's deadline expires
//     first the base context is cancelled, which stops sessions at their
//     next round boundary.
//
// The package is wired into a process by cmd/rfidserved and load-tested by
// cmd/rfidload.
package serve
