package trace

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Entry is one completed request as retained by the flight recorder: who
// it was (trace ID, model, op, peer), how it ended (outcome), and where
// its latency went (stage breakdowns). Entries are immutable once
// recorded.
type Entry struct {
	// TraceID is the request's 64-bit trace ID; 0 if the request was not
	// sampled (server entries are recorded regardless so the recorder
	// catches slow requests tracing happened to miss).
	TraceID uint64 `json:"-"`
	// Trace is TraceID in the canonical 16-hex-digit form; filled by
	// Snapshot so Record stays allocation-light.
	Trace string `json:"trace,omitempty"`
	// Time is when the request completed.
	Time time.Time `json:"time"`
	// Side is "server" or "client" — which end measured this entry.
	Side string `json:"side"`
	// Model is the model the request addressed.
	Model string `json:"model,omitempty"`
	// Op is the protocol operation (classify, ping, models, ...).
	Op string `json:"op"`
	// Peer is the remote address of the other end.
	Peer string `json:"peer,omitempty"`
	// Outcome is "ok" for success, otherwise the protocol error code or a
	// transport-error description.
	Outcome string `json:"outcome"`
	// Queries is the batch size of a classify request.
	Queries int `json:"queries,omitempty"`
	// TotalNs is the request's total latency as seen by this side: server
	// residency (frame decoded → reply written) for server entries, full
	// round trip (submit → reply decoded) for client entries.
	TotalNs int64 `json:"total_ns"`
	// Local is the stage breakdown measured on this side.
	Local Breakdown `json:"stages"`
	// Server is the breakdown the server reported over the wire; only set
	// on client entries of traced requests.
	Server Breakdown `json:"server_stages"`
	// ServerTotalNs is the server's reported total residency for the
	// request; only set on client entries of traced requests.
	ServerTotalNs int64 `json:"server_total_ns,omitempty"`
}

// ok reports whether the entry completed successfully.
func (e *Entry) ok() bool { return e.Outcome == "" || e.Outcome == "ok" }

// Recorder is a lock-free flight recorder retaining two populations: the
// slowest-N successful requests (by TotalNs) and the most recent N errored
// requests. Record is safe for arbitrary concurrent writers and is
// engineered for the common case — a request faster than everything
// already retained — to be a single atomic load with no allocation.
//
// Slowest-N admission is CAS-based: find the minimum slot, swap it out,
// refresh the cached floor. Under heavy contention a concurrent admission
// can win the CAS and an entry is simply dropped after a few retries —
// acceptable for a diagnostic aid, in exchange for never taking a lock on
// the serving path.
type Recorder struct {
	slow  []atomic.Pointer[Entry]
	floor atomic.Int64 // min TotalNs across slow slots once full; 0 while filling

	errCursor atomic.Uint64
	errs      []atomic.Pointer[Entry]

	records atomic.Uint64 // total entries offered to Record
}

// Default capacities for the process-wide recorders.
const (
	DefaultSlowN = 64
	DefaultErrN  = 64
)

// Default is the process-wide server-side flight recorder: every frame a
// Server answers is offered to it, and the admin API's
// GET /v1/debug/requests reads it.
var Default = NewRecorder(DefaultSlowN, DefaultErrN)

// Client is the process-wide client-side recorder, fed by completed
// sampled spans from client traffic of every topology.
var Client = NewRecorder(DefaultSlowN, DefaultErrN)

// NewRecorder returns a recorder retaining the slowN slowest and the errN
// most recent errored requests. Capacities are clamped to at least 1.
func NewRecorder(slowN, errN int) *Recorder {
	if slowN < 1 {
		slowN = 1
	}
	if errN < 1 {
		errN = 1
	}
	return &Recorder{
		slow: make([]atomic.Pointer[Entry], slowN),
		errs: make([]atomic.Pointer[Entry], errN),
	}
}

// Record offers a completed request to the recorder. Successful requests
// compete for the slowest-N slots; errored requests always enter the
// error ring. The not-admitted fast path does not allocate.
func (r *Recorder) Record(e Entry) {
	r.records.Add(1)
	if !e.ok() {
		p := new(Entry)
		*p = e
		r.errs[int(r.errCursor.Add(1)-1)%len(r.errs)].Store(p)
		return
	}
	if e.TotalNs <= r.floor.Load() {
		return
	}
	r.admitSlow(&e)
}

// admitSlow tries to install e over the current minimum slot.
func (r *Recorder) admitSlow(e *Entry) {
	const maxRetries = 4
	for try := 0; try < maxRetries; try++ {
		minIdx := -1
		minNs := int64(math.MaxInt64)
		var minPtr *Entry
		for i := range r.slow {
			p := r.slow[i].Load()
			if p == nil {
				minIdx, minNs, minPtr = i, 0, nil
				break
			}
			if p.TotalNs < minNs {
				minIdx, minNs, minPtr = i, p.TotalNs, p
			}
		}
		if e.TotalNs <= minNs {
			return // no longer qualifies
		}
		p := new(Entry)
		*p = *e
		if r.slow[minIdx].CompareAndSwap(minPtr, p) {
			r.refreshFloor()
			return
		}
	}
}

// refreshFloor recomputes the admission floor. While any slot is still
// empty the floor stays 0 so everything is admitted.
func (r *Recorder) refreshFloor() {
	minNs := int64(math.MaxInt64)
	for i := range r.slow {
		p := r.slow[i].Load()
		if p == nil {
			return
		}
		if p.TotalNs < minNs {
			minNs = p.TotalNs
		}
	}
	r.floor.Store(minNs)
}

// Snapshot is a point-in-time view of the recorder, shaped for the admin
// API's JSON response.
type Snapshot struct {
	// Records is the total number of requests offered to the recorder.
	Records uint64 `json:"records"`
	// Slowest holds the retained slowest requests, slowest first.
	Slowest []Entry `json:"slowest"`
	// Errors holds the retained errored requests, newest first.
	Errors []Entry `json:"errors"`
}

// Snapshot collects the recorder's current contents. Entries are copies
// with the Trace hex form filled in; mutating them does not affect the
// recorder.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Records: r.records.Load(),
		Slowest: make([]Entry, 0, len(r.slow)),
		Errors:  make([]Entry, 0, len(r.errs)),
	}
	for i := range r.slow {
		if p := r.slow[i].Load(); p != nil {
			s.Slowest = append(s.Slowest, *p)
		}
	}
	sort.Slice(s.Slowest, func(i, j int) bool { return s.Slowest[i].TotalNs > s.Slowest[j].TotalNs })
	cur := int(r.errCursor.Load())
	for k := 0; k < len(r.errs); k++ {
		i := cur - 1 - k
		if i < 0 {
			break
		}
		if p := r.errs[i%len(r.errs)].Load(); p != nil {
			s.Errors = append(s.Errors, *p)
		}
	}
	for i := range s.Slowest {
		if s.Slowest[i].TraceID != 0 {
			s.Slowest[i].Trace = FormatID(s.Slowest[i].TraceID)
		}
	}
	for i := range s.Errors {
		if s.Errors[i].TraceID != 0 {
			s.Errors[i].Trace = FormatID(s.Errors[i].TraceID)
		}
	}
	return s
}
