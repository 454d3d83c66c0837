package privehd

import (
	"privehd/internal/trace"
)

// Request tracing attributes a request's latency to its stages — client
// queue, network, server queue, scoring, reply write — end to end: a
// sampled Predict draws a 64-bit trace ID, carries it to the server in the
// request frame, and the server's reply carries its stage timing back.
// Both sides feed flight recorders that retain the slowest and the errored
// requests, the server tags its latency histogram with the trace ID as an
// OpenMetrics exemplar, and the admin API serves the server-side recorder
// at GET /v1/debug/requests — so one slow request can be chased from a
// Prometheus histogram bucket to the exact stage that ate its budget.
//
// Tracing is off by default and adds nothing to the untraced hot path
// (zero allocations; a single atomic load per request).

// SetTraceSampling sets the process-wide fraction of requests that are
// traced: 0 disables tracing (the default), 1 traces everything, values
// between sample uniformly. It applies to client-side submissions
// (every Client topology) and to server frames that arrive untraced.
func SetTraceSampling(rate float64) { trace.SetSampling(rate) }

// TraceSampling returns the current trace sampling rate.
func TraceSampling() float64 { return trace.Sampling() }

// TraceEntry is one completed traced (or flight-recorded) request: trace
// ID, model, operation, peer, outcome, and where the latency went.
type TraceEntry = trace.Entry

// TraceBreakdown is a per-stage latency breakdown in nanoseconds.
type TraceBreakdown = trace.Breakdown

// TraceSnapshot is a point-in-time view of a flight recorder: the slowest
// retained requests and the most recent errors.
type TraceSnapshot = trace.Snapshot

// OnTrace installs fn as the process-wide observer of completed client-side
// traced requests — bench harnesses and tests use it to collect spans
// without polling the recorder. Pass nil to remove the observer. The
// callback runs on the connection's receive goroutine; keep it fast.
func OnTrace(fn func(TraceEntry)) { trace.SetObserver(fn) }

// ClientTraces snapshots the process-wide client-side flight recorder
// (traced requests of every Client).
func ClientTraces() TraceSnapshot { return trace.Client.Snapshot() }

// ServerTraces snapshots the process-wide server-side flight recorder —
// the same data the admin API serves at GET /v1/debug/requests.
func ServerTraces() TraceSnapshot { return trace.Default.Snapshot() }
