// Package trace is the request-tracing core of the serving stack: random
// 64-bit trace IDs, a process-wide sampling decision, per-request stage
// timers (Span), and a lock-free flight recorder (Recorder) that retains
// the slowest and the errored requests a process has seen.
//
// The design rule mirrors internal/metrics: the serving hot path must not
// pay for the ability to be traced. The unsampled path — Sampled()
// returning 0, every method on a nil *Span — is allocation-free and a
// handful of atomic operations, asserted by AllocsPerRun tests and the
// gated BenchmarkTraceDisabled. Allocation happens only for requests that
// are actually sampled or admitted to the flight recorder, which is by
// construction a small fraction of traffic.
//
// Trace context crosses the wire: the offload protocol carries the trace
// ID on the Request frame and the server's stage breakdown back on the
// Reply, so one ID names the same request in the client span, the server
// flight recorder, the slow-request log line and the histogram exemplar.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sampleThreshold encodes the sampling rate as a uint64 comparison bound:
// 0 disables sampling entirely, math.MaxUint64 samples everything, and
// anything between samples a uniform 64-bit draw against the bound.
var sampleThreshold atomic.Uint64

// SetSampling sets the process-wide trace sampling rate in [0, 1]. 0 (the
// default) disables tracing: Sampled returns 0 and Start returns nil, at
// zero allocation cost. 1 samples every request.
func SetSampling(rate float64) {
	switch {
	case rate <= 0:
		sampleThreshold.Store(0)
	case rate >= 1:
		sampleThreshold.Store(math.MaxUint64)
	default:
		sampleThreshold.Store(uint64(rate * math.MaxUint64))
	}
}

// Sampling returns the current sampling rate.
func Sampling() float64 {
	switch t := sampleThreshold.Load(); t {
	case 0:
		return 0
	case math.MaxUint64:
		return 1
	default:
		return float64(t) / math.MaxUint64
	}
}

// idState drives the trace-ID generator: an atomic Weyl sequence finalized
// with the splitmix64 mixer, seeded from crypto/rand at startup. Two
// atomic ops and a few multiplies per ID, no locks, no allocation, and IDs
// never repeat within 2^64 draws of one process.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// NextID returns a new nonzero 64-bit trace ID.
func NextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15) // golden-ratio Weyl increment
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// Sampled rolls the sampling dice: it returns a fresh trace ID if this
// request should be traced, 0 otherwise. The unsampled path is one atomic
// load (plus one ID draw when a rate is set) and never allocates.
func Sampled() uint64 {
	t := sampleThreshold.Load()
	if t == 0 {
		return 0
	}
	if t != math.MaxUint64 && NextID() > t {
		return 0
	}
	return NextID()
}

// FormatID renders a trace ID the way every surface shows it: 16 lowercase
// hex digits. It allocates (one string) and belongs on slow paths only.
func FormatID(id uint64) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// Stage names one timed phase of a request's life. Client and server time
// different subsets: the server times decode, queue-wait, score and
// reply-write; the client times its queue wait (encoding the frame and
// waiting for the connection's write lock) and attributes the remainder of
// the round trip to the network once the server's reported time is
// subtracted.
type Stage uint8

const (
	// StageQueueWait is time spent waiting to be worked on: the client's
	// encode and wait for the connection's write lock, or a server query's
	// wait for a scoring token.
	StageQueueWait Stage = iota
	// StageDecode is reading the frame off the wire and decoding it, from
	// its first byte's arrival.
	StageDecode
	// StageEncode is building the outgoing payload (edge query
	// preparation client-side).
	StageEncode
	// StageScore is model scoring (summed across a batch's queries).
	StageScore
	// StageReplyWrite is encoding and writing the reply to the wire.
	StageReplyWrite
	// StageNetwork is the client-side remainder: round trip minus the
	// server's reported residency.
	StageNetwork
	// StageGather is the sharded coordinator's scatter–gather window: the
	// slowest shard's partial-score round trip (recorded with ObserveMax,
	// so stragglers — not the sum of overlapping fan-out — show up here).
	StageGather
	// StageHedge is the window a hedged backup request was in flight on a
	// second replica: from hedge launch until the call resolved. Zero when
	// the primary answered before the hedge delay elapsed.
	StageHedge
	// NumStages is the number of stages a Span times.
	NumStages = int(StageHedge) + 1
)

// String returns the stage's snake_case name, as used in logs and JSON.
func (s Stage) String() string {
	switch s {
	case StageQueueWait:
		return "queue_wait"
	case StageDecode:
		return "decode"
	case StageEncode:
		return "encode"
	case StageScore:
		return "score"
	case StageReplyWrite:
		return "reply_write"
	case StageNetwork:
		return "network"
	case StageGather:
		return "gather"
	case StageHedge:
		return "hedge"
	}
	return "unknown"
}

// Span accumulates per-stage durations for one request. Stage cells are
// atomic so concurrent goroutines (a batch split into scoring chunks) may
// record into one span; everything else is single-writer. A nil *Span is
// the unsampled case: every method is nil-safe and free, so call sites
// need no branches.
type Span struct {
	id     uint64
	stages [NumStages]atomic.Int64
}

// spanPool recycles spans so steady-state tracing does not allocate per
// request.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// NewSpan returns a zeroed span carrying the given trace ID (which may be
// 0: servers time every frame for the flight recorder, traced or not).
func NewSpan(id uint64) *Span {
	s := spanPool.Get().(*Span)
	s.id = id
	for i := range s.stages {
		s.stages[i].Store(0)
	}
	return s
}

// Start rolls the sampling dice and returns a new span on success, nil
// otherwise — the one-liner for client-side call sites.
func Start() *Span {
	if id := Sampled(); id != 0 {
		return NewSpan(id)
	}
	return nil
}

// ID returns the span's trace ID (0 for nil or untraced spans).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Add accumulates d into the stage's timer.
func (s *Span) Add(st Stage, d time.Duration) {
	if s == nil {
		return
	}
	s.stages[st].Add(int64(d))
}

// ObserveSince adds the time elapsed since t0 to the stage's timer.
func (s *Span) ObserveSince(st Stage, t0 time.Time) {
	if s == nil {
		return
	}
	s.stages[st].Add(int64(time.Since(t0)))
}

// ObserveMax raises the stage's timer to d if d is larger — the shape for
// "longest wait" stages like queue-wait across a batch's queries, where a
// sum would overcount overlapping waits.
func (s *Span) ObserveMax(st Stage, d time.Duration) {
	if s == nil {
		return
	}
	for {
		old := s.stages[st].Load()
		if int64(d) <= old || s.stages[st].CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// Stage returns the accumulated duration of one stage.
func (s *Span) Stage(st Stage) time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.stages[st].Load())
}

// Breakdown snapshots the span's stage timers.
func (s *Span) Breakdown() Breakdown {
	if s == nil {
		return Breakdown{}
	}
	return Breakdown{
		QueueNs:   s.stages[StageQueueWait].Load(),
		DecodeNs:  s.stages[StageDecode].Load(),
		EncodeNs:  s.stages[StageEncode].Load(),
		ScoreNs:   s.stages[StageScore].Load(),
		WriteNs:   s.stages[StageReplyWrite].Load(),
		NetworkNs: s.stages[StageNetwork].Load(),
		GatherNs:  s.stages[StageGather].Load(),
		HedgeNs:   s.stages[StageHedge].Load(),
	}
}

// Free returns the span to the pool. The span must not be used afterwards.
// Nil-safe, so unsampled paths need no branch.
func (s *Span) Free() {
	if s == nil {
		return
	}
	s.id = 0
	spanPool.Put(s)
}

// Breakdown is a request's per-stage latency split in nanoseconds. Fields
// a side did not time stay 0 and are omitted from JSON.
type Breakdown struct {
	QueueNs   int64 `json:"queue_ns,omitempty"`
	DecodeNs  int64 `json:"decode_ns,omitempty"`
	EncodeNs  int64 `json:"encode_ns,omitempty"`
	ScoreNs   int64 `json:"score_ns,omitempty"`
	WriteNs   int64 `json:"write_ns,omitempty"`
	NetworkNs int64 `json:"network_ns,omitempty"`
	GatherNs  int64 `json:"gather_ns,omitempty"`
	HedgeNs   int64 `json:"hedge_ns,omitempty"`
}

// observer is an optional per-entry hook (RecordClient fan-out): load
// harnesses register one to see every completed client span without
// polling recorder snapshots.
var observer atomic.Pointer[func(Entry)]

// SetObserver installs fn to be called synchronously with every entry
// recorded through RecordClient; nil uninstalls. fn must be fast and safe
// for concurrent use.
func SetObserver(fn func(Entry)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

// RecordClient records a completed client-side span into the Client
// recorder and notifies the observer, if any.
func RecordClient(e Entry) {
	Client.Record(e)
	if fn := observer.Load(); fn != nil {
		(*fn)(e)
	}
}
