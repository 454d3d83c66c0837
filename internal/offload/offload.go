// Package offload implements the cloud-hosted inference split of Prive-HD
// §III-C as a versioned network protocol: the edge encodes, quantizes and
// masks a query hypervector locally (privehd.Edge) and ships only the
// obfuscated vector; the server holds the full-precision model and returns
// the predicted label.
//
// # Wire protocol (version 6)
//
// Each side opens with a fixed 4-byte header — the magic bytes "PHD" plus
// the protocol version byte — and every message after it is one
// length-prefixed binary frame (len:u32 | body). wire.go holds the one
// codec for every frame and its byte layout. The client sends its header
// and a Hello advertising its encoder geometry and the name of the model it
// wants served (empty = the registry default). The server speaks exactly
// one version, ProtocolVersion: any other version byte is refused with a
// typed version-mismatch ServerHello before the Hello is read, and a
// client whose server does not answer with this version's header (an older
// gob-speaking server, say) fails with ErrVersionMismatch. On a matching
// version the server answers with its header and a ServerHello that either
// accepts — echoing the resolved model's name, publication version,
// geometry, batch limit, packed-symbol alphabet, the model's full public
// encoder setup (encoding, levels, seed, features) so edges can
// auto-configure instead of matching flags by hand, and, when the entry
// holds only a slice of a larger logical model, its shard descriptor
// (Shard) — or rejects with a typed code: a mismatched geometry or an
// unknown model is refused at the handshake instead of failing mid-stream.
//
// After the handshake the client streams Request frames and the server
// answers each with one Reply:
//
//	Request: id | op | flags [| trace] [| budget] | count | (kind | dim | payload)*
//	Reply:   id | code | flags [| detail] [| results] [| models] [| timing] [| partials] [| normSq]
//
// ID is a client-chosen correlation number echoed on the Reply. The server
// handles a connection's frames concurrently and MAY answer them out of
// order, so clients pipeline many requests over one connection and match
// replies by ID (the Client below has its callers write their own frames
// and one reader goroutine route replies through an in-flight table). Op
// selects the frame's operation: OpClassify, OpListModels for a registry
// listing (Reply.Models), OpPartialScores for the scatter half of sharded
// scoring, OpPing for an in-band liveness check.
//
// OpPartialScores answers with raw per-class int64 dot products
// (Partials, one row per query) plus the per-class Σv² of the served slice
// (NormSq) instead of labels — a coordinator sums both across dimension
// shards exactly and finishes the norm division itself, reproducing
// whole-model scores bit-for-bit. GoAway is a server-push drain notice:
// when a graceful shutdown begins, or a connection has sat idle past the
// server's idle bound, every connection past its handshake receives an
// unsolicited Reply{GoAway: true} (ID 0, never assigned to a request)
// before the write side half-closes, so coordinators and pools stop
// routing new work to a draining replica instead of discovering the FIN
// with a request already in flight.
//
// Trace, BudgetNs and Timing are optional: a client that sampled the
// request sends its 64-bit trace ID on the frame, and the server answers a
// traced request with its per-stage timing breakdown (StageTiming);
// BudgetNs carries the caller's remaining deadline so the server can shed
// expired work. Each is present on the wire only when its flag bit is
// set, so untraced, undeadlined frames carry no bytes for them.
//
// Each classification Request carries up to MaxBatch query hypervectors,
// and the server answers each frame with one Reply carrying the per-query
// labels and scores. Each frame is scored on its own goroutine, a batch
// split over at most WithWorkers goroutines, and every query holds one of
// WithWorkers scoring tokens shared by all connections only while it is
// scored, so one large or slow batch cannot monopolize the server.
// Quantized queries travel packed as two bit-planes — the low and high bit
// of every symbol's 2-bit two's complement, D/4 bytes for D dimensions —
// which is exactly the −2…+1 alphabet the server advertises, so no other
// symbol can be sent. The planes are the one form a quantized query takes
// from the edge's encoder to the server's kernel (intscore.Planes): the
// codec copies their words to and from the frame's plane bytes, and the
// server scores what it decoded. Every length prefix is checked against a
// cap before anything is allocated for it: request frames against the
// largest full batch of the connection's model, so a peer declaring an
// oversized frame gets a typed refusal and is disconnected.
//
// The models behind a server live in a registry (internal/registry): each
// Request frame resolves its model name against the current registry
// snapshot, so Swap takes effect between frames without dropping
// connections, while a frame in flight keeps the snapshot it resolved.
//
// What crosses the wire is exactly the query hypervector — which is the
// point: the experiments eavesdrop on it (attack.Decode) to quantify
// leakage with and without the paper's obfuscation.
package offload

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privehd/internal/hdc"
	"privehd/internal/intscore"
	"privehd/internal/registry"
	"privehd/internal/trace"
	"privehd/internal/vecmath"
)

// ProtocolVersion is the one wire protocol version this package speaks;
// the server refuses every other version byte during the handshake.
const ProtocolVersion = 6

// DefaultModelName is the registry name NewServer publishes a single model
// under.
const DefaultModelName = "default"

// magic opens every connection, so a server can tell a protocol peer from a
// stray scanner before decoding anything.
var magic = [3]byte{'P', 'H', 'D'}

// DefaultMaxBatch is the per-request query limit a server advertises unless
// configured otherwise.
const DefaultMaxBatch = 256

// MinSymbol and MaxSymbol bound the packed-query alphabet: −2…+1 covers
// every quantization scheme in the quant package (bipolar, ternary, biased
// ternary and 2-bit). Servers advertise these bounds in the handshake; the
// two bit-planes a packed query travels as spell nothing else, and
// PartialScores refuses int8 symbols outside them. They alias the intscore
// bounds, since the integer scoring engine is specified over the same
// alphabet.
const (
	MinSymbol = intscore.MinSymbol
	MaxSymbol = intscore.MaxSymbol
)

// Typed protocol failures. Errors returned by Dial, NewClient, Classify and
// ClassifyBatch wrap these sentinels; test with errors.Is.
var (
	// ErrVersionMismatch reports a peer speaking a different protocol
	// version.
	ErrVersionMismatch = errors.New("offload: protocol version mismatch")
	// ErrGeometryMismatch reports a client whose encoder dimensionality or
	// class count does not match the served model.
	ErrGeometryMismatch = errors.New("offload: encoder geometry mismatch")
	// ErrBadMagic reports a peer that is not speaking the privehd protocol
	// at all.
	ErrBadMagic = errors.New("offload: peer is not speaking the privehd protocol")
	// ErrSymbolOutOfRange reports an int8 query (PartialScores) carrying a
	// symbol outside the advertised alphabet.
	ErrSymbolOutOfRange = errors.New("offload: packed symbol outside advertised alphabet")
	// ErrServerClosed is what Serve returns on a server already closed or
	// shut down; the listener it was handed is closed too.
	ErrServerClosed = errors.New("offload: server closed")
	// ErrBatchTooLarge reports a request exceeding the server's advertised
	// batch limit.
	ErrBatchTooLarge = errors.New("offload: batch exceeds server limit")
	// ErrUnknownModel reports a handshake or request naming a model the
	// server's registry does not hold. It aliases the registry sentinel so
	// errors.Is works identically on both sides of the wire.
	ErrUnknownModel = registry.ErrUnknownModel
	// ErrUnsupportedOp reports a request frame naming an operation the
	// server does not implement.
	ErrUnsupportedOp = errors.New("offload: unsupported request op")
	// ErrPartialUnsupported reports an OpPartialScores request carrying
	// full-precision vectors: partial scores are exact integer dots,
	// defined for packed queries only, and every served model answers
	// those. It is a protocol rejection, never retried.
	ErrPartialUnsupported = errors.New("offload: full-precision queries cannot be partial-scored")
	// ErrTransport reports a connection-level failure — dial, send,
	// receive, i/o timeout, or the client being closed — as opposed to a
	// typed protocol rejection. Classification is idempotent, so a caller
	// holding several connections (a pool or replica set) may safely retry
	// an operation that failed with ErrTransport on another connection;
	// errors that do NOT wrap ErrTransport were answered by a live server
	// and must not be retried.
	ErrTransport = errors.New("offload: connection failure")
	// ErrIOTimeout reports that a connection configured with WithIOTimeout
	// saw no reply progress for the full timeout while requests were in
	// flight. It always also wraps ErrTransport.
	ErrIOTimeout = errors.New("offload: i/o timeout")
	// ErrOverloaded reports a server that refused the connection at accept
	// time because it is at its configured connection limit
	// (WithMaxConns). It wraps ErrTransport deliberately: the rejection is
	// a property of this server right now, not of the request, so pools
	// back off and redial, and clusters fail the query over to another
	// replica — exactly the treatment a connection failure gets.
	ErrOverloaded = fmt.Errorf("offload: server overloaded (%w)", ErrTransport)
	// ErrDeadlineExceeded reports a request whose propagated budget
	// (Request.BudgetNs, stamped from the caller's context deadline) ran
	// out — either client-side before or while waiting, or server-side
	// when the frame's budget expired before or while it waited to be
	// scored and the server shed it instead of scoring dead work. It is a
	// typed verdict about this call, not about the connection, so it
	// deliberately does NOT wrap ErrTransport: retrying an
	// already-expired deadline on another replica cannot help, and pools
	// and clusters must return it to the caller untouched.
	ErrDeadlineExceeded = errors.New("offload: deadline exceeded")
	// ErrFrameTooLarge reports a frame whose length prefix exceeds the
	// receiver's cap. The server refuses such a frame typed and then closes
	// the connection, since the stream can no longer be parsed.
	ErrFrameTooLarge = errors.New("offload: frame exceeds the connection's size cap")
)

// errBudgetExpired is the preallocated pre-send expiry verdict, so the
// deadline-stamping hot path stays alloc-free even when it fails fast.
var errBudgetExpired = fmt.Errorf("%w: budget exhausted before send", ErrDeadlineExceeded)

// Reply/ServerHello failure codes carried on the wire.
const (
	codeBadMagic     = "bad-magic"
	codeVersion      = "version-mismatch"
	codeGeometry     = "geometry-mismatch"
	codeBatch        = "batch-too-large"
	codeDim          = "dimension-mismatch"
	codeSymbol       = "symbol-out-of-range"
	codeUnknownModel = "unknown-model"
	codeBadOp        = "unsupported-op"
	codeOverloaded   = "overloaded"
	codePartial      = "partial-unsupported"
	codeDeadline     = "deadline"
	codeFrame        = "frame-too-large"
)

// codeError maps a wire failure code to its sentinel error.
func codeError(code, detail string) error {
	var base error
	switch code {
	case codeVersion:
		base = ErrVersionMismatch
	case codeGeometry:
		base = ErrGeometryMismatch
	case codeBadMagic:
		base = ErrBadMagic
	case codeBatch:
		base = ErrBatchTooLarge
	case codeSymbol:
		base = ErrSymbolOutOfRange
	case codeUnknownModel:
		base = ErrUnknownModel
	case codeBadOp:
		base = ErrUnsupportedOp
	case codeOverloaded:
		base = ErrOverloaded
	case codePartial:
		base = ErrPartialUnsupported
	case codeDeadline:
		base = ErrDeadlineExceeded
	case codeFrame:
		base = ErrFrameTooLarge
	default:
		return fmt.Errorf("offload: server error %s: %s", code, detail)
	}
	if detail == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// Hello is the client half of the handshake: the geometry of the encoder
// behind the queries to come, and which served model they are for.
// Classes may be zero when the client does not know the label space (a pure
// edge encoder). Dim may be zero to mean "any geometry" — the
// auto-configuring client that builds its encoder from the ServerHello.
type Hello struct {
	Dim     int
	Classes int
	// Model names the served model to bind the connection to; empty
	// resolves to the server's default model.
	Model string
}

// ServerHello is the server half of the handshake. Code is empty on accept;
// on reject it names the failure and Detail elaborates.
type ServerHello struct {
	Code    string
	Detail  string
	Version byte
	// Dim and Classes describe the served model.
	Dim     int
	Classes int
	// MaxBatch is the largest query count the server accepts per Request.
	MaxBatch int
	// MinSymbol and MaxSymbol bound the accepted packed-query alphabet.
	MinSymbol int8
	MaxSymbol int8
	// Model and ModelVersion identify the resolved registry entry:
	// the name the connection is bound to and its publication version
	// (bumped by every hot swap).
	Model        string
	ModelVersion int
	// Encoding, Levels, Features and Seed are the model's full public
	// encoder setup — base/level hypervectors are deterministic in these,
	// and they are shared public setup per the paper, so advertising them
	// lets edges auto-configure without leaking anything the paper keeps
	// secret. Features is zero when the server holds a bare model with no
	// recorded encoder setup.
	Encoding int
	Levels   int
	Features int
	Seed     uint64
	// Shard describes the slice of a larger logical model this entry
	// serves, nil for whole models.
	Shard *registry.ShardInfo
}

// Query is one encoded (and obfuscated) query hypervector. Exactly one of
// Vector and Packed is set. A quantizing edge writes the Packed form
// directly; the codec copies its plane words into the frame and the server
// decodes them back into the same form for its integer scoring kernel.
// Vector is the unquantized baseline (WithRawQueries). Each attempt encodes
// the caller's Query when it is submitted, and pools, clusters and hedges
// may submit it again, so a caller must not reuse it while any attempt may
// still hold it.
type Query struct {
	// Vector is the offloaded query hypervector in full precision.
	Vector []float64
	// Packed carries a quantized query as its lo/hi bit-planes, 2 bits per
	// dimension on the wire — a 32× saving over float64 that §III-C's
	// quantization makes possible ("transferring the least amount of
	// information"). Two bits spell exactly the −2…+1 alphabet, so a
	// Packed query cannot carry a symbol outside it.
	Packed intscore.Planes
	// off is the first dimension of Packed's planes the query sends, set by
	// Slice; Packed.Dim then counts the dimensions from there.
	off int
}

// Slice returns the query that sends dimensions [off, off+n) of q's packed
// planes as its dimensions [0, n) — a shard coordinator's slice of a full
// query. The codec shifts the bits as it writes the frame, so slicing
// copies nothing.
func (q Query) Slice(off, n int) Query {
	if off < 0 || n < 0 || off+n > q.Packed.Dim {
		panic(fmt.Sprintf("offload: slice [%d,%d) of a %d-dimension query", off, off+n, q.Packed.Dim))
	}
	q.off += off
	q.Packed.Dim = n
	return q
}

// PackQuery converts a quantized hypervector to one int8 symbol per
// dimension, the form PartialScores takes; intscore.Split turns it into a
// Query's planes. It returns false if any value is not an integer within
// the protocol alphabet [MinSymbol, MaxSymbol] — i.e. the query was not
// actually quantized by one of the paper's schemes and must travel
// full-precision.
func PackQuery(h []float64) ([]int8, bool) {
	return intscore.PackInto(h, nil)
}

// Op selects a request frame's operation.
type Op uint8

// Request ops selectable per frame. The zero value is classification.
const (
	// OpClassify scores Request.Queries against the connection's model.
	OpClassify Op = iota
	// OpListModels asks for the server's current registry listing
	// (Reply.Models) — client-side model discovery over the wire.
	OpListModels
	// OpPartialScores asks for raw per-class int64 dot products of
	// each packed query against the served (possibly sliced) model's
	// integer classes, plus the per-class Σv² — the scatter half of
	// sharded scoring. Queries must be packed; full-precision ones are
	// refused with ErrPartialUnsupported.
	OpPartialScores
	// OpPing asks the server for an empty reply — an in-band liveness
	// check pooled connections use to detect dead peers while idle,
	// without burning a dial.
	OpPing
)

// Request is one client→server frame: a batch of queries answered together
// in a single reply, or a control operation.
type Request struct {
	// ID correlates the frame's Reply on the pipelined connection, where
	// replies may arrive out of order. The server echoes it verbatim.
	ID uint64
	// Op is the frame operation.
	Op      Op
	Queries []Query
	// Trace is the request's 64-bit trace ID; 0 means untraced, and an
	// untraced frame carries no trace bytes. A traced request gets its
	// server-side stage breakdown back on Reply.Timing, and the server tags
	// its histogram exemplar, flight-recorder entry and slow-request log
	// line with the same ID.
	Trace uint64
	// BudgetNs is the request's remaining deadline budget in nanoseconds
	// at send time, stamped from the caller's context deadline; 0 means
	// no deadline, and an undeadlined frame carries no budget bytes. The
	// server starts the clock on frame arrival and sheds the request with
	// a codeDeadline rejection if the budget expires before or while it
	// sits in the scoring queue — no point scoring work the caller has
	// already abandoned.
	BudgetNs int64
}

// Result is the classification of one query.
type Result struct {
	// Label is the predicted class.
	Label int
	// Scores are the per-class similarity scores (norm-adjusted dot
	// products of Eq. 4); returned so clients can gauge confidence.
	Scores []float64
}

// ModelListing describes one served model in an OpListModels reply: its
// registry identity, geometry, and the public encoder setup edges
// auto-configure from (zero when the model was registered without one).
type ModelListing struct {
	Name    string
	Version int
	Dim     int
	Classes int
	// Encoding, Levels, Features and Seed are the model's public encoder
	// setup, as advertised in the ServerHello.
	Encoding int
	Levels   int
	Features int
	Seed     uint64
	// Default marks the model served to clients that name none.
	Default bool
}

// Reply is one server→client frame answering a Request. Code is empty on
// success; on failure it names the protocol error and no Results are
// returned. ID echoes the Request's correlation number.
type Reply struct {
	ID      uint64
	Code    string
	Detail  string
	Results []Result
	// Models answers an OpListModels request.
	Models []ModelListing
	// Timing is the server-side stage breakdown, attached only to traced
	// requests — nil otherwise, and then absent from the frame. Clients use
	// it to attribute a round trip to server queue/scoring versus the
	// network.
	Timing *StageTiming
	// Partials and NormSq answer an OpPartialScores request:
	// Partials[i][l] is the exact int64 dot of query i against the served
	// entry's class l, and NormSq[l] is Σv² of that class — both over the
	// dimension slice this server holds, so a coordinator sums them across
	// shards and reconstructs whole-model scores bit-for-bit.
	Partials [][]int64
	NormSq   []float64
	// GoAway marks an unsolicited server-push drain notice (ID 0):
	// the server has begun a graceful shutdown and the client should stop
	// routing new work here. In-flight requests will still be answered.
	GoAway bool
}

// StageTiming is the per-request server-side latency split a traced
// request's Reply carries, in nanoseconds: time the frame's queries spent
// waiting for a scoring token (the longest wait across the batch), time
// actually scoring (summed across the batch), and the frame's total server
// residency from decode completion to reply-encode start. Reply-write time
// cannot ride on the reply it measures; it lands in the server's flight
// recorder instead.
type StageTiming struct {
	QueueNs int64
	ScoreNs int64
	TotalNs int64
}

// Server serves classification over a listener, one reader goroutine per
// connection and one goroutine per frame, with query scoring bounded by a
// token count shared by all connections. The models behind it live in a
// registry: many named models behind one listener, hot-swappable while
// clients stream.
type Server struct {
	reg      *registry.Registry
	maxBatch int
	workers  int
	maxConns int // 0 = unlimited
	// handshake bounds each new connection's header and Hello reads
	// (handshakeTimeout; tests shorten it).
	handshake time.Duration
	// idle bounds how long a handshaken connection may go without sending
	// a frame, and how long one reply write may block on a peer that does
	// not read (idleTimeout; tests shorten it).
	idle time.Duration

	// Flight-recorder and slow-request plumbing: every answered frame is
	// timed and offered to the recorder; frames at or over slowThresh
	// additionally emit a structured slowLog event.
	recorder   *trace.Recorder
	slowLog    *slog.Logger
	slowThresh time.Duration

	// tokens bounds scoring across every connection: a query holds one
	// token, of workers in all, for exactly as long as it is scored.
	tokens chan struct{}
	served atomic.Int64

	mu      sync.Mutex
	lis     net.Listener
	conns   map[*srvConn]struct{}
	closing bool
	wg      sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxBatch sets the per-request query limit the server advertises and
// enforces.
func WithMaxBatch(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithWorkers bounds scoring (default GOMAXPROCS): at most n queries are
// scored at once across every connection, however many clients are
// streaming, and a batch is spread over at most n goroutines.
func WithWorkers(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithMaxConns bounds how many connections the server holds open at once
// (default unlimited). A connection arriving past the limit is not left to
// hang in the accept backlog: the server answers its handshake with a
// typed overload rejection (clients see ErrOverloaded, which is retryable
// — pools back off, clusters fail over) and closes it immediately, so
// overload surfaces as fast feedback instead of timeouts.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxConns = n
		}
	}
}

// WithSlowRequestLog emits a structured slow-request event on log for
// every frame whose server residency reaches threshold: trace ID, model,
// op, peer, outcome and the full stage breakdown. The threshold-triggered
// event mirrors what the flight recorder retains, but pushes it into the
// log stream where it lands next to everything else the operator tails.
func WithSlowRequestLog(log *slog.Logger, threshold time.Duration) ServerOption {
	return func(s *Server) {
		if log != nil && threshold > 0 {
			s.slowLog = log
			s.slowThresh = threshold
		}
	}
}

// WithFlightRecorder directs the server's per-frame entries into r instead
// of the process-wide trace.Default recorder — for tests, or processes
// running several servers that want separate recorders.
func WithFlightRecorder(r *trace.Recorder) ServerOption {
	return func(s *Server) {
		if r != nil {
			s.recorder = r
		}
	}
}

// NewServer returns a server for a single (typically full-precision) model,
// published in a fresh registry under DefaultModelName with no recorded
// encoder setup. The model's norm caches are precomputed here; it must not
// be mutated while the server runs. For multi-model serving build a
// registry.Registry and use NewRegistryServer.
func NewServer(model *hdc.Model, opts ...ServerOption) *Server {
	reg := registry.New()
	if _, err := reg.Register(DefaultModelName, model, registry.EncoderInfo{}); err != nil {
		// On a fresh registry, Register only fails on a nil model or one
		// with a non-finite class coordinate: both caller errors.
		panic(err)
	}
	return NewRegistryServer(reg, opts...)
}

// NewRegistryServer returns a server answering queries from the given model
// registry. The registry may keep changing while the server runs —
// Register, Swap and Deregister take effect for handshakes and request
// frames that follow them, without disturbing connections or queries in
// flight.
func NewRegistryServer(reg *registry.Registry, opts ...ServerOption) *Server {
	s := &Server{
		reg:       reg,
		maxBatch:  DefaultMaxBatch,
		workers:   runtime.GOMAXPROCS(0),
		handshake: handshakeTimeout,
		idle:      idleTimeout,
		conns:     make(map[*srvConn]struct{}),
		recorder:  trace.Default,
	}
	for _, o := range opts {
		o(s)
	}
	s.tokens = make(chan struct{}, s.workers)
	return s
}

// Registry returns the registry the server answers from.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Served returns how many queries have been answered.
func (s *Server) Served() int { return int(s.served.Load()) }

// maxConnPipeline bounds how many frames one connection may have in
// flight on the server: past it the connection's read loop stops decoding
// until a frame completes, so TCP backpressure paces a client that
// pipelines faster than the server answers.
const maxConnPipeline = 128

// handshakeTimeout bounds how long a new connection may take to send its
// header and Hello. Without it a peer that connects and then says nothing
// holds a WithMaxConns slot forever.
const handshakeTimeout = 10 * time.Second

// idleTimeout bounds how long a handshaken connection may send nothing
// while nothing of it is in flight; the server then drains it (GoAway,
// graceful close). It sits well above the pools' in-band ping interval
// (cluster.DefaultPingInterval, 15s), so a pooled connection that is
// merely idle never trips it — only a peer that has gone silent does.
// It also bounds each reply write, so a peer that pipelines frames and
// never reads its replies is dropped rather than pinning the frame
// goroutines and their buffers.
const idleTimeout = 2 * time.Minute

// maxRetainedBody is the largest frame buffer a connection keeps between
// frames; a rare larger frame gets a buffer of its own.
const maxRetainedBody = 1 << 20

// srvConn tracks one client connection's lifecycle for graceful shutdown,
// plus the model name the handshake bound it to. Many frames may be in
// flight at once, so the busy state is a counter and replies are
// serialized by writeMu.
type srvConn struct {
	conn  net.Conn
	peer  string // remote address, cached so per-frame entries don't re-format it
	model string // resolved model name the handshake bound the connection to

	writeMu sync.Mutex     // serializes replies from concurrent frames
	frames  sync.WaitGroup // in-flight frame goroutines

	// goAway, installed once the handshake completes, pushes the drain
	// notice to the peer; goAwayOnce makes repeated askClose calls
	// idempotent.
	goAwayOnce sync.Once

	mu            sync.Mutex
	goAway        func()
	inflight      int
	closeWhenIdle bool
}

// handshaken returns the drain-notice hook, nil until the handshake has
// completed.
func (c *srvConn) handshaken() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.goAway
}

// notifyGoAway pushes the drain notice, once, if the handshake completed
// (a connection caught mid-handshake gets nothing — it is closed outright).
func (c *srvConn) notifyGoAway() {
	if fn := c.handshaken(); fn != nil {
		c.goAwayOnce.Do(fn)
	}
}

// enterBusy marks the connection as answering one more request and
// re-arms its idle read deadline, as each frame starts to arrive (each
// later piece of its body re-arms it again, through bodyReader); it
// reports false if shutdown already asked the connection to close.
func (c *srvConn) enterBusy(idle time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeWhenIdle {
		return false
	}
	c.inflight++
	c.conn.SetReadDeadline(time.Now().Add(idle))
	return true
}

// idleExpired handles a read deadline that expired at a frame boundary.
// It reports whether the connection should stop reading: its drain bound
// ran out during a graceful close, or it sat idle with nothing in flight —
// in which case it is drained like a shutdown (GoAway, a graceful close,
// then r is discarded until the peer hangs up). With frames still in
// flight the deadline is re-armed instead.
func (c *srvConn) idleExpired(idle time.Duration, r io.Reader) bool {
	c.mu.Lock()
	closing, busy := c.closeWhenIdle, c.inflight > 0
	if busy && !closing {
		c.conn.SetReadDeadline(time.Now().Add(idle))
	}
	c.mu.Unlock()
	if !busy && !closing {
		c.askClose()
		c.drainRefused(r)
	}
	return !busy || closing
}

// exitBusy marks one request finished and reports whether the connection
// should now close because a shutdown is in progress and no other frame is
// still in flight.
func (c *srvConn) exitBusy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	return c.closeWhenIdle && c.inflight == 0
}

// askClose requests a graceful close: the peer is told to stop routing new
// work here (GoAway push), idle connections close immediately, busy ones
// right after their last in-flight reply.
func (c *srvConn) askClose() {
	c.notifyGoAway()
	c.mu.Lock()
	idle := c.inflight == 0
	c.closeWhenIdle = true
	c.mu.Unlock()
	if idle {
		c.gracefulClose()
	}
}

// gracefulClose ends a connection without destroying replies the peer has
// not read yet: a full Close after the peer wrote more data turns into a
// TCP RST, which discards the peer's receive buffer — including replies to
// requests it already pipelined. Half-closing the write side sends a clean
// FIN instead; the handler's read loop then drains the peer until it
// notices and hangs up, and the final Close finds nothing left to reset.
// A connection still mid-handshake has no replies at risk and closes
// fully.
func (c *srvConn) gracefulClose() {
	if c.handshaken() != nil {
		if cw, ok := c.conn.(closeWriter); ok {
			cw.CloseWrite()
			// Bound how long the handler's read loop waits for the peer
			// to notice the FIN and hang up: a peer that never closes
			// (idle, or ignoring the FIN) must not pin the handler — and
			// with it a graceful Shutdown — until the caller's ctx
			// expires.
			c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			return
		}
	}
	c.conn.Close()
}

// lingerClose follows a refusal sent before the peer's handshake was read:
// it half-closes and discards what the peer still sends until it hangs up
// or a short bound passes. Closing with those bytes unread would reset the
// connection, which can destroy the refusal before the peer reads it.
func lingerClose(conn net.Conn) {
	if cw, ok := conn.(closeWriter); ok {
		cw.CloseWrite()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		io.Copy(io.Discard, conn)
	}
}

// drainRefused discards incoming bytes after a graceful close has refused
// further work, until the peer sees the FIN and hangs up (EOF) or the
// drain bound expires — it keeps the receive window open so the peer's
// in-flight writes cannot trigger a reset before it reads its replies.
func (c *srvConn) drainRefused(r io.Reader) {
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	io.Copy(io.Discard, r)
}

// Serve accepts connections until the listener closes, the context is
// cancelled, or Close/Shutdown is called. Each connection may stream any
// number of Request frames. Serve returns nil after a clean stop; on a
// server already closed it closes lis and returns ErrServerClosed.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.lis = lis
	s.mu.Unlock()

	if ctx == nil {
		ctx = context.Background()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(sctx)
		case <-stop:
		}
	}()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing || ctx.Err() != nil {
				// Don't return (and let the caller exit) until the
				// shutdown path has drained in-flight handlers; Close and
				// Shutdown guarantee every handler terminates, so this
				// wait is bounded.
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("offload: accept: %w", err)
		}
		mConnsTotal.Inc()
		sc := &srvConn{conn: countConn(conn)}
		if ra := conn.RemoteAddr(); ra != nil {
			sc.peer = ra.String()
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			s.wg.Wait()
			return nil
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.rejectOverloaded(sc.conn)
			}()
			continue
		}
		s.conns[sc] = struct{}{}
		mConnsActive.Inc()
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer s.forget(sc)
			s.handle(sc)
		}()
	}
}

func (s *Server) forget(sc *srvConn) {
	sc.conn.Close()
	s.mu.Lock()
	if _, ok := s.conns[sc]; ok {
		delete(s.conns, sc)
		mConnsActive.Dec()
	}
	s.mu.Unlock()
}

// rejectOverloaded answers a connection that arrived past the configured
// connection limit: it completes just enough of the handshake to carry a
// typed overload code back — reading the 4-byte header, then sending a
// refusing ServerHello — and closes. The whole exchange is bounded by a
// short deadline so a slow or silent peer cannot pin resources; that is
// the point of the limit.
func (s *Server) rejectOverloaded(conn net.Conn) {
	defer conn.Close()
	mRejections.With(codeOverloaded).Inc()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := readHeader(conn); err != nil {
		return
	}
	WriteServerHello(conn, ServerHello{
		Code:    codeOverloaded,
		Detail:  fmt.Sprintf("connection limit %d reached, retry later", s.maxConns),
		Version: ProtocolVersion,
	})
	lingerClose(conn)
}

// Close stops the listener and closes every connection immediately,
// dropping in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	for sc := range s.conns {
		sc.conn.Close()
	}
	s.mu.Unlock()
	return err
}

// Shutdown stops accepting new connections, lets every in-flight request
// finish its reply, then closes the connections. It returns ctx.Err() if
// the context expires first, force-closing whatever remains.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	if s.lis != nil {
		s.lis.Close()
	}
	for sc := range s.conns {
		go sc.askClose()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sc := range s.conns {
			sc.conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// handle runs the handshake then answers Request frames until the peer
// hangs up, goes idle, or shutdown closes the connection.
func (s *Server) handle(sc *srvConn) {
	conn := sc.conn
	conn.SetReadDeadline(time.Now().Add(s.handshake))
	// Buffered, so a small frame's length prefix and body cost one read.
	rd := &bodyReader{Conn: conn}
	br := bufio.NewReader(rd)
	refuse := func(sh ServerHello) {
		mRejections.With(sh.Code).Inc()
		sh.Version = ProtocolVersion
		WriteServerHello(conn, sh)
	}
	version, err := readHeader(br)
	if errors.Is(err, ErrBadMagic) {
		refuse(ServerHello{Code: codeBadMagic})
		lingerClose(conn)
		return
	}
	if err != nil {
		return
	}
	if version != ProtocolVersion {
		refuse(ServerHello{
			Code:   codeVersion,
			Detail: fmt.Sprintf("server speaks v%d only, client sent v%d", ProtocolVersion, version),
		})
		lingerClose(conn)
		return
	}
	hello, err := readHelloFrame(br)
	var big *errFrameTooLarge
	if errors.As(err, &big) {
		refuse(ServerHello{Code: codeFrame, Detail: "hello " + big.Error()})
		lingerClose(conn)
		return
	}
	if err != nil {
		return
	}
	// Bind the connection to the resolved model name. The resolved name —
	// not the possibly-empty requested one — is pinned, so a later
	// SetDefault cannot silently rebind an established connection to a
	// model it never handshook with; the name is then re-resolved against
	// the registry on every frame, so hot swaps of the same name apply
	// without reconnecting.
	entry, err := s.reg.Lookup(hello.Model)
	if err != nil {
		refuse(ServerHello{Code: codeUnknownModel, Detail: err.Error()})
		return
	}
	sc.model = entry.Name
	model := entry.Model
	// Dim 0 means "configure me from your answer".
	if (hello.Dim != 0 && hello.Dim != model.Dim()) || (hello.Classes != 0 && hello.Classes != model.NumClasses()) {
		refuse(ServerHello{
			Code: codeGeometry,
			Detail: fmt.Sprintf("model %q is %d-dimensional with %d classes, client advertised dim %d classes %d",
				entry.Name, model.Dim(), model.NumClasses(), hello.Dim, hello.Classes),
			Dim:     model.Dim(),
			Classes: model.NumClasses(),
		})
		return
	}
	if err := WriteServerHello(conn, ServerHello{
		Version:      ProtocolVersion,
		Dim:          model.Dim(),
		Classes:      model.NumClasses(),
		MaxBatch:     s.maxBatch,
		MinSymbol:    MinSymbol,
		MaxSymbol:    MaxSymbol,
		Model:        entry.Name,
		ModelVersion: entry.Version,
		Encoding:     entry.Encoder.Encoding,
		Levels:       entry.Encoder.Levels,
		Features:     entry.Encoder.Features,
		Seed:         entry.Encoder.Seed,
		Shard:        entry.Shard,
	}); err != nil {
		return
	}
	// Request frames are bounded by a full batch of this model's
	// full-precision queries; anything longer is refused unread.
	limit := requestCap(model.Dim(), s.maxBatch)
	// The handshake is complete: swap its read bound for the idle bound,
	// unless a graceful close already set its own drain deadline, and
	// install the drain notice now that the handshake is off the stream — a
	// graceful shutdown pushes Reply{GoAway} (ID 0, never assigned) under
	// writeMu before half-closing, so clients stop routing here ahead of
	// the FIN.
	sc.mu.Lock()
	if !sc.closeWhenIdle {
		conn.SetReadDeadline(time.Now().Add(s.idle))
	}
	sc.goAway = func() {
		if sc.writeReply(&Reply{GoAway: true}, s.idle) != nil {
			conn.Close()
		}
	}
	sc.mu.Unlock()

	// Each frame is answered on its own goroutine (replies serialized by
	// writeMu, possibly out of order), bounded by maxConnPipeline so a fast
	// sender is paced by TCP backpressure rather than unbounded
	// goroutines. Before the handler returns it waits for in-flight frame
	// goroutines, so a graceful shutdown never closes the conn under a
	// reply still being written.
	sem := make(chan struct{}, maxConnPipeline)
	defer sc.frames.Wait()
	var body []byte
	for {
		// Wait for a frame's first byte without consuming it, so an idle
		// deadline always expires at a frame boundary.
		if _, err := br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !sc.idleExpired(s.idle, br) {
				continue
			}
			return // EOF, broken peer, idle drain, or shutdown closed the conn
		}
		// A frame is arriving: count it in flight, which also gives its
		// body read a fresh idle bound, re-armed by every piece of the body
		// that arrives, and the quiet after its last byte one more.
		if !sc.enterBusy(s.idle) {
			sc.drainRefused(br)
			return
		}
		// Read+decode time for the frame, from its first byte's arrival.
		// It feeds the flight recorder's decode stage but never the
		// wire-reported server total.
		tRead := time.Now()
		rd.rearm = s.idle
		body, err = readFrame(br, body, limit)
		rd.rearm = 0
		if err != nil {
			sc.exitBusy()
			if errors.As(err, &big) {
				s.refuseFrame(sc, br, big)
			}
			return
		}
		fb := framePool.Get().(*frameBufs)
		req, err := decodeRequest(body, fb)
		if cap(body) > maxRetainedBody {
			body = nil
		}
		if err != nil {
			fb.release()
			sc.exitBusy()
			return // a malformed frame: the peer is not speaking v6
		}
		decodeDur := time.Since(tRead)
		sem <- struct{}{}
		sc.frames.Add(1)
		s.wg.Add(1) // graceful shutdown waits for frames, not just conns
		go func() {
			defer s.wg.Done()
			defer sc.frames.Done()
			defer func() { <-sem }()
			err := s.handleFrame(sc, req, decodeDur)
			fb.release()
			closing := sc.exitBusy()
			if err != nil {
				sc.conn.Close()
			} else if closing {
				sc.gracefulClose()
			}
		}()
	}
}

// bodyReader is a connection as its frame reader sees it. While rearm is
// set — only while a frame is being read — every read that returns bytes
// pushes the read deadline rearm past now, so a body that keeps arriving
// is never cut off at the idle bound however long the whole of it takes.
// Handshake and drain reads leave rearm unset and keep their own bounds.
type bodyReader struct {
	net.Conn
	rearm time.Duration
}

func (r *bodyReader) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	if n > 0 && r.rearm > 0 {
		r.Conn.SetReadDeadline(time.Now().Add(r.rearm))
	}
	return n, err
}

// refuseFrame answers a request frame whose length prefix is over the
// connection's cap: a typed refusal (echoing the frame's ID when its first
// bytes have already arrived), then — once the frames in flight have
// answered — a lingering close, since the unread body leaves the stream
// unparseable.
func (s *Server) refuseFrame(sc *srvConn, br *bufio.Reader, big *errFrameTooLarge) {
	reply := Reply{Code: codeFrame, Detail: big.Error()}
	if br.Buffered() >= 8 {
		id, _ := br.Peek(8)
		reply.ID = binary.LittleEndian.Uint64(id)
	}
	mRejections.With(codeFrame).Inc()
	sc.writeReply(&reply, s.idle)
	sc.frames.Wait()
	lingerClose(sc.conn)
}

// writeReply writes rep as one frame under writeMu, within bound of the
// write starting. A peer that stops reading fails the write instead of
// parking the writer, and the frame buffers it holds, for as long as it
// stays connected; the caller treats the error as a dead peer.
func (c *srvConn) writeReply(rep *Reply, bound time.Duration) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(bound))
	return writeReply(c.conn, rep)
}

// writeReply encodes rep into a pooled buffer and writes it as one frame.
func writeReply(w io.Writer, rep *Reply) error {
	bp := bufPool.Get().(*[]byte)
	b, err := appendReply((*bp)[:0], rep)
	if err == nil {
		_, err = w.Write(b)
	}
	putBuf(bp, b)
	return err
}

// putBuf returns an encode buffer to the pool, unless it grew past what is
// worth keeping.
func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxRetainedBody {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// handleFrame answers one decoded frame with full stage instrumentation:
// trace resolution (the client's ID, or a server-side sampling decision
// for requests arriving untraced), span timing through answer and the
// reply write, the wire-reported StageTiming for traced requests, and the
// flight-recorder/slow-log entry every frame produces. It returns the
// reply-write error, which terminates the connection.
func (s *Server) handleFrame(sc *srvConn, req Request, decodeDur time.Duration) error {
	start := time.Now()
	traceID := req.Trace
	if traceID == 0 {
		traceID = trace.Sampled()
	}
	span := trace.NewSpan(traceID)
	span.Add(trace.StageDecode, decodeDur)
	reply := s.answer(sc.model, req, span)
	reply.ID = req.ID
	if traceID != 0 {
		reply.Timing = &StageTiming{
			QueueNs: int64(span.Stage(trace.StageQueueWait)),
			ScoreNs: int64(span.Stage(trace.StageScore)),
			TotalNs: int64(time.Since(start)),
		}
	}
	tWrite := time.Now()
	err := sc.writeReply(&reply, s.idle)
	span.ObserveSince(trace.StageReplyWrite, tWrite)
	s.record(sc, opLabel(req.Op), &reply, span, len(req.Queries), time.Since(start), err)
	span.Free()
	return err
}

// record offers the finished frame to the flight recorder and, past the
// slow threshold, emits the structured slow-request event. It runs for
// every frame, traced or not — the recorder must see all requests to
// retain the slowest ones — and its fast path (frame not retained, not
// slow) does not allocate.
func (s *Server) record(sc *srvConn, op string, reply *Reply, span *trace.Span, queries int, total time.Duration, writeErr error) {
	outcome := "ok"
	switch {
	case reply.Code != "":
		outcome = reply.Code
	case writeErr != nil:
		outcome = "write-failed"
	}
	s.recorder.Record(trace.Entry{
		TraceID: span.ID(),
		Time:    time.Now(),
		Side:    "server",
		Model:   sc.model,
		Op:      op,
		Peer:    sc.peer,
		Outcome: outcome,
		Queries: queries,
		TotalNs: int64(total),
		Local:   span.Breakdown(),
	})
	if s.slowLog != nil && s.slowThresh > 0 && total >= s.slowThresh {
		s.slowLog.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
			slog.String("trace", trace.FormatID(span.ID())),
			slog.String("model", sc.model),
			slog.String("op", op),
			slog.String("peer", sc.peer),
			slog.String("outcome", outcome),
			slog.Int("queries", queries),
			slog.Duration("total", total),
			slog.Duration("queue", span.Stage(trace.StageQueueWait)),
			slog.Duration("decode", span.Stage(trace.StageDecode)),
			slog.Duration("score", span.Stage(trace.StageScore)),
			slog.Duration("reply_write", span.Stage(trace.StageReplyWrite)),
		)
	}
}

// answer handles one request frame: classification against the current
// publication of the connection's model, or a control op. It is the
// per-frame instrumentation point: in-flight gauge, per-op request counter
// and latency histogram, and typed-rejection counters for refused frames —
// every observation on the zero-alloc fast path. A traced frame (span
// carrying a nonzero ID) additionally pins its trace ID as the latency
// histogram's exemplar, so a scrape can name an actual slow request.
func (s *Server) answer(modelName string, req Request, span *trace.Span) Reply {
	mInflight.Inc()
	start := time.Now()
	// The frame's budget clock starts on arrival: the client stamped its
	// remaining deadline, so expiry here means the request spent its whole
	// budget inside this server and the caller has already given up.
	var deadline time.Time
	if req.BudgetNs > 0 {
		deadline = start.Add(time.Duration(req.BudgetNs))
	}
	var reply Reply
	switch req.Op {
	case OpClassify, OpPartialScores:
		reply = s.answerQueries(modelName, req, span, deadline)
	case OpListModels:
		reply = s.answerListModels()
	case OpPing:
		reply = Reply{}
	default:
		reply = Reply{Code: codeBadOp, Detail: fmt.Sprintf("op %d (this server speaks v%d)", req.Op, ProtocolVersion)}
	}
	op := opLabel(req.Op)
	if id := span.ID(); id != 0 {
		mRequestSeconds.With(op).ObserveExemplar(time.Since(start).Seconds(), trace.FormatID(id))
	} else {
		mRequestSeconds.With(op).ObserveSince(start)
	}
	mRequests.With(op).Inc()
	if reply.Code != "" {
		mRejections.With(reply.Code).Inc()
	}
	mInflight.Dec()
	return reply
}

// answerListModels snapshots the registry for client-side model discovery.
func (s *Server) answerListModels() Reply {
	entries, def := s.reg.SnapshotModels()
	models := make([]ModelListing, len(entries))
	for i, e := range entries {
		models[i] = ModelListing{
			Name:     e.Name,
			Version:  e.Version,
			Dim:      e.Model.Dim(),
			Classes:  e.Model.NumClasses(),
			Encoding: e.Encoder.Encoding,
			Levels:   e.Encoder.Levels,
			Features: e.Encoder.Features,
			Seed:     e.Encoder.Seed,
			Default:  e.Name == def,
		}
	}
	return Reply{Models: models}
}

// deadlineReply is the typed shed verdict for a frame whose budget ran out
// inside the server.
func deadlineReply(budget int64) Reply {
	return Reply{Code: codeDeadline,
		Detail: fmt.Sprintf("request budget %v expired before scoring finished", time.Duration(budget))}
}

// answerQueries scores one classification or partial-score frame on the
// frame's own goroutine, a batch spread over at most workers goroutines.
// Both ops share the registry lookup, the batch limit, the per-query
// dimension validation, the deadline shedding and the
// served-query accounting; only the partial-score refusal and the result
// shape differ. Partial scores are the scatter half of sharded scoring:
// the raw int64 dot of every packed query against every served integer
// class, plus the per-class Σv², both over whatever dimension slice this
// server's entry holds — refused, typed and never retried, when a query is
// full-precision. The span collects the batch's token waits and scoring
// time. A non-zero deadline sheds the frame instead of scoring dead work:
// checked before scoring starts (budget spent upstream) and as each query
// takes its scoring token (budget spent waiting for one).
func (s *Server) answerQueries(modelName string, req Request, span *trace.Span, deadline time.Time) Reply {
	// Resolve the name fresh per frame: a Swap between frames serves the
	// new model from the next frame on, while this frame keeps the entry
	// it resolved (the registry never mutates a published entry).
	entry, err := s.reg.Lookup(modelName)
	if err != nil {
		return Reply{Code: codeUnknownModel, Detail: err.Error()}
	}
	partial := req.Op == OpPartialScores
	if len(req.Queries) > s.maxBatch {
		return Reply{Code: codeBatch,
			Detail: fmt.Sprintf("%d queries, limit %d", len(req.Queries), s.maxBatch)}
	}
	// Validate serially (cheap, and keeps the first-error semantics
	// deterministic), then score.
	dim := entry.Model.Dim()
	for i, q := range req.Queries {
		if partial && q.Vector != nil {
			return Reply{Code: codePartial,
				Detail: fmt.Sprintf("query %d is full-precision; partial scoring is integer-domain only", i)}
		}
		// Effective wire length mirrors the scoring path: Vector wins when
		// both fields are (ab)used, so a malformed query can never reach
		// the scorer with the wrong dimensionality.
		n := q.Packed.Dim
		if q.Vector != nil {
			n = len(q.Vector)
		}
		if n != dim {
			return Reply{Code: codeDim,
				Detail: fmt.Sprintf("query %d has dim %d, model dim %d", i, n, dim)}
		}
	}
	var reply Reply
	b := batch{tokens: s.tokens, model: entry.Model, scorer: entry.Scorer, queries: req.Queries, span: span, deadline: deadline}
	if partial {
		reply.Partials = make([][]int64, len(req.Queries))
		b.partials = reply.Partials
	} else {
		reply.Results = make([]Result, len(req.Queries))
		b.results = reply.Results
	}
	b.enq = time.Now()
	if !deadline.IsZero() && b.enq.After(deadline) {
		return deadlineReply(req.BudgetNs)
	}
	var scored bool
	if n := min(len(req.Queries), s.workers); n > 1 {
		scored = b.scoreChunks(n)
	} else {
		scored = b.score(0, len(req.Queries))
	}
	if !scored {
		return deadlineReply(req.BudgetNs)
	}
	s.served.Add(int64(len(req.Queries)))
	entry.AddServed(len(req.Queries))
	mQueries.With(entry.Name).Add(uint64(len(req.Queries)))
	if partial {
		reply.NormSq = entry.Scorer.NormsSq()
	}
	return reply
}

// batch is one validated frame on its way through the scorer: the entry's
// model and integer engine, the reply slots the queries' answers land in
// (partials instead of results in partial-score mode), and the frame's
// span and budget.
type batch struct {
	tokens   chan struct{}
	model    *hdc.Model
	scorer   *intscore.Engine
	queries  []Query
	results  []Result
	partials [][]int64
	span     *trace.Span
	// enq is when the frame started scoring; each chunk's first token wait
	// counts from it.
	enq      time.Time
	deadline time.Time
}

// scoreChunks splits the batch into n contiguous chunks, scores the first
// on the calling goroutine and each other on a goroutine of its own, and
// reports false if any chunk was shed. It takes the batch by value so that
// only this copy escapes to the heap: a frame scored in one chunk never
// comes here and spends no allocation on the bookkeeping.
func (b batch) scoreChunks(n int) bool {
	var wg sync.WaitGroup
	var shed atomic.Bool
	for c := 1; c < n; c++ {
		lo, hi := c*len(b.queries)/n, (c+1)*len(b.queries)/n
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !b.score(lo, hi) {
				shed.Store(true)
			}
		}()
	}
	ok := b.score(0, len(b.queries)/n)
	wg.Wait()
	return ok && !shed.Load()
}

// score scores queries [lo, hi) in order. Each query takes a scoring token
// just before it is scored and gives it back just after, so a long chunk
// never holds the server and waiting frames take turns. The wait for each
// token feeds the queue-wait stage (longest across the batch) and the
// scoring the score stage (summed across the batch). A query that takes
// its token past the deadline is not scored: score gives the token back
// and reports false, leaving the rest of the chunk unscored.
func (b *batch) score(lo, hi int) bool {
	wait := b.enq
	for i := lo; i < hi; i++ {
		b.tokens <- struct{}{}
		start := time.Now()
		b.span.ObserveMax(trace.StageQueueWait, start.Sub(wait))
		if !b.deadline.IsZero() && start.After(b.deadline) {
			<-b.tokens
			return false
		}
		b.scoreOne(i)
		wait = time.Now()
		<-b.tokens
		b.span.Add(trace.StageScore, wait.Sub(start))
	}
	return true
}

// scoreOne scores query i into its reply slot. Packed queries are scored
// in the integer domain on the entry's engine, straight from the planes
// the frame decoded into — no float64 expansion, no float dot. Vector
// wins when both wire fields are (ab)used, exactly as answerQueries
// validated the frame's dimensionality, so a frame carrying a valid Vector
// plus a wrong-length Packed can never reach the packed scorer and panic
// it. The scores slice is the only per-query allocation: it escapes into
// the Reply.
func (b *batch) scoreOne(i int) {
	q := b.queries[i]
	if b.partials != nil {
		out := make([]int64, b.scorer.NumClasses())
		b.scorer.PartialsInto(q.Packed, out)
		b.partials[i] = out
		return
	}
	scores := make([]float64, b.model.NumClasses())
	if q.Vector != nil {
		b.model.ScoresInto(q.Vector, scores)
	} else {
		b.scorer.ScoresInto(q.Packed, scores)
	}
	b.results[i] = Result{Label: vecmath.ArgMax(scores), Scores: scores}
}

// Client is the edge-side connection to a classification server. It is
// safe for concurrent use: each caller writes its own frame under a write
// lock, one reader goroutine — the only goroutine a Client runs — routes
// replies by request ID through an in-flight table, and any number of
// goroutines may pipeline Classify/ClassifyBatch calls over the one
// connection without waiting on each other's round trips.
type Client struct {
	conn      net.Conn
	hello     ServerHello
	ioTimeout time.Duration
	peer      string // remote address, cached for trace entries

	br         *bufio.Reader // owned by recvLoop after the handshake
	replyLimit int           // reply frame cap implied by the handshake

	// writeLock serializes frame writes: a one-slot semaphore, held by
	// whoever holds its slot, so a caller can give up waiting for it.
	writeLock chan struct{}

	// draining is set when the server pushes a GoAway drain notice:
	// the connection still answers what is in flight, but pools and
	// coordinators should route new work elsewhere.
	draining atomic.Bool

	mu       sync.Mutex
	inflight map[uint64]*pending
	nextID   uint64
	err      error // sticky transport error; set once
}

// pending is one in-flight request: the request and the slot its routed
// reply (or the connection's terminal error) lands in. Sampled requests
// additionally carry their client-side trace state: the submit time and
// the queue wait until the frame's write starts, stamped by the submitting
// caller (atomically, because the recv goroutine reads it with no other
// synchronization between the two).
type pending struct {
	req   Request
	reply Reply
	err   error
	done  chan struct{}

	traceID uint64
	submitT time.Time
	queueNs atomic.Int64
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithIOTimeout bounds how long the client waits for connection progress:
// each frame write must complete within d, and whenever requests are in
// flight a reply must arrive within d of the last one (an idle connection
// never times out). Without it a hung server blocks a Classify call
// forever, since the dial deadline is cleared after the handshake. On
// expiry the connection fails every
// in-flight call with an error wrapping ErrIOTimeout (and ErrTransport).
func WithIOTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.ioTimeout = d
		}
	}
}

// Dial connects to a server and performs the handshake. The Hello carries
// the client encoder's dimensionality (0 to accept any geometry and read
// it from the ServerHello), the class count when known (0 otherwise) and
// the requested model name ("" for the server's default). The context
// bounds connection establishment and the handshake. Failures to reach or
// keep the connection wrap ErrTransport; typed handshake rejections
// (version, geometry, unknown model) do not.
func Dial(ctx context.Context, network, addr string, hello Hello, opts ...ClientOption) (*Client, error) {
	var d net.Dialer
	if ctx == nil {
		ctx = context.Background()
	}
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %w", ErrTransport, addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	// A deadline alone doesn't cover cancellable contexts: cancelling ctx
	// mid-handshake expires the deadline to abort it. Once that hook has
	// started, its expired deadline may land at any moment, so the
	// handshake is abandoned even if it just finished.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	c, err := NewClient(conn, hello, opts...)
	if !stop() || err != nil {
		conn.Close()
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: handshake: %w", ErrTransport, ctx.Err())
		}
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// NewClient performs the protocol handshake over an existing connection
// (useful with net.Pipe in tests), starts the client's one goroutine, the
// reply reader, and returns the client. On handshake rejection the returned
// error wraps ErrVersionMismatch, ErrGeometryMismatch, ErrUnknownModel or
// ErrBadMagic; handshake i/o failures wrap ErrTransport.
func NewClient(conn net.Conn, hello Hello, opts ...ClientOption) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReader(conn), writeLock: make(chan struct{}, 1)}
	if ra := conn.RemoteAddr(); ra != nil {
		c.peer = ra.String()
	}
	for _, o := range opts {
		o(c)
	}
	if err := WriteHello(conn, hello); err != nil {
		return nil, fmt.Errorf("%w: handshake: %v", ErrTransport, err)
	}
	sh, err := ReadServerHello(c.br)
	if errors.Is(err, ErrVersionMismatch) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("%w: handshake: %v", ErrTransport, err)
	}
	if sh.Code != "" {
		return nil, codeError(sh.Code, sh.Detail)
	}
	c.hello = sh
	c.replyLimit = replyCap(sh)
	c.inflight = make(map[uint64]*pending)
	go c.recvLoop()
	return c, nil
}

// stampBudget copies ctx's remaining deadline budget onto the request
// frame. It is the deadline-propagation hot path — one Deadline call and
// one clock read, zero allocations (BenchmarkPredictWithDeadline gates
// this) — and fails fast with the typed verdict when the budget is
// already spent, so a dead request never costs a frame.
func stampBudget(ctx context.Context, req *Request) error {
	if ctx == nil {
		return nil
	}
	d, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	b := time.Until(d)
	if b <= 0 {
		return errBudgetExpired
	}
	req.BudgetNs = int64(b)
	return nil
}

// submit stamps ctx's deadline budget onto the request (ctx may be nil),
// encodes it, and once it holds the write lock assigns it an ID, registers
// it in the in-flight table and writes the frame itself, each write bounded
// by the IO timeout. The caller waits on the returned pending; a failed
// write fails the connection, which resolves it. Frames may reach the wire
// out of ID order. A query the codec cannot represent (packed planes too
// short for their dimensions) fails here before anything is sent — and the
// caller's queries are free for reuse as soon as submit returns.
//
// The wait for the write lock ends with ctx: behind a write stalled by
// backpressure, a caller whose deadline passes gets ErrDeadlineExceeded
// and writes nothing, so no frame goes out that the server would only
// shed. A write once started is never cut — a partial frame would fail
// every caller on the connection.
func (c *Client) submit(ctx context.Context, req Request) (*pending, error) {
	if err := stampBudget(ctx, &req); err != nil {
		return nil, err
	}
	p := &pending{req: req, done: make(chan struct{})}
	// The sampling decision for the whole request path lives here, so
	// every client topology traces without any API of its own; the
	// ID crosses the wire on the frame. Unsampled requests pay one atomic
	// load and zero allocations beyond the pending itself.
	if id := trace.Sampled(); id != 0 {
		p.traceID = id
		p.req.Trace = id
		p.submitT = time.Now()
	}
	bp := bufPool.Get().(*[]byte)
	frame, err := appendRequest((*bp)[:0], &p.req)
	if err != nil {
		putBuf(bp, frame)
		return nil, err
	}
	if err := c.lockWrite(ctx); err != nil {
		putBuf(bp, frame)
		return nil, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		<-c.writeLock
		putBuf(bp, frame)
		return nil, err
	}
	c.nextID++
	p.req.ID = c.nextID
	binary.LittleEndian.PutUint64(frame[4:], p.req.ID) // the ID leads the body
	c.inflight[p.req.ID] = p
	// Arm the read deadline on the idle→busy transition; SetReadDeadline
	// interrupts the recv goroutine's current blocked Read too, so a
	// server that hangs from here on cannot block us forever.
	if c.ioTimeout > 0 && len(c.inflight) == 1 {
		c.conn.SetReadDeadline(time.Now().Add(c.ioTimeout))
	}
	c.mu.Unlock()
	if p.traceID != 0 {
		// The queue stage is this frame's encode plus the wait for the
		// write lock. It is stamped before the write: stamped after it,
		// the reply's reader often closed the trace first and read 0.
		p.queueNs.Store(int64(time.Since(p.submitT)))
	}
	if c.ioTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.ioTimeout))
	}
	_, err = c.conn.Write(frame)
	<-c.writeLock
	putBuf(bp, frame)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			err = fmt.Errorf("%w: %v mid-frame", ErrIOTimeout, err)
		}
		// p is in flight, so this fail or an earlier one resolves it.
		c.fail(fmt.Errorf("%w: send: %w", ErrTransport, err))
	}
	return p, nil
}

// lockWrite takes the write lock, giving up when ctx is done first: an
// expired deadline returns ErrDeadlineExceeded, a cancellation an error
// wrapping ErrTransport, as waitCtx does. An uncontended lock never looks
// at ctx.
func (c *Client) lockWrite(ctx context.Context) error {
	select {
	case c.writeLock <- struct{}{}:
		return nil
	default:
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case c.writeLock <- struct{}{}:
		if ctx == nil || ctx.Err() == nil {
			return nil
		}
		<-c.writeLock // both were ready and select picked the lock
	case <-done:
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v waiting to write the request", ErrDeadlineExceeded, ctx.Err())
	}
	return fmt.Errorf("%w: abandoned waiting to write the request: %v", ErrTransport, ctx.Err())
}

// wait blocks until the pending's reply is routed or the connection fails.
func (p *pending) wait() (Reply, error) {
	<-p.done
	if p.err != nil {
		return Reply{}, p.err
	}
	return p.reply, nil
}

// waitCtx is wait bounded by the caller's context: an expired deadline
// returns the typed ErrDeadlineExceeded (the server sheds the frame on its
// side from the stamped budget), a plain cancellation — a hedged attempt
// losing the race — wraps ErrTransport so retry layers treat it like any
// abandoned connection-level outcome. The reply, if it still arrives, is
// routed and dropped harmlessly; the connection stays healthy.
func (p *pending) waitCtx(ctx context.Context) (Reply, error) {
	if ctx == nil {
		return p.wait()
	}
	select {
	case <-p.done:
		return p.wait()
	default:
	}
	select {
	case <-p.done:
		return p.wait()
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return Reply{}, fmt.Errorf("%w: %v waiting for reply %d", ErrDeadlineExceeded, ctx.Err(), p.req.ID)
		}
		return Reply{}, fmt.Errorf("%w: abandoned waiting for reply %d: %v", ErrTransport, p.req.ID, ctx.Err())
	}
}

// recvLoop is the dedicated reader: it decodes replies as the server
// produces them — in any order — and routes each to its in-flight request
// by ID. Reply progress re-arms the read deadline; draining the table
// disarms it so idle connections never time out.
func (c *Client) recvLoop() {
	var body []byte
	for {
		// Wait for a reply's first byte without consuming it, so an
		// expired read deadline leaves the stream at a frame boundary.
		if _, err := c.br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.mu.Lock()
				n := len(c.inflight)
				if n == 0 {
					// A deadline that expired as the table drained (or a
					// leftover dial deadline): nothing was owed to us, and
					// nothing of the stream was consumed. Disarm and keep
					// going.
					c.conn.SetReadDeadline(time.Time{})
				}
				c.mu.Unlock()
				if n == 0 {
					continue
				}
				c.fail(fmt.Errorf("%w: %w: no reply for %v with %d requests in flight",
					ErrTransport, ErrIOTimeout, c.ioTimeout, n))
				return
			}
			if errors.Is(err, io.EOF) {
				c.fail(fmt.Errorf("%w: server closed the connection", ErrTransport))
			} else {
				c.fail(fmt.Errorf("%w: receive: %v", ErrTransport, err))
			}
			return
		}
		var reply Reply
		var err error
		if body, err = readFrame(c.br, body, c.replyLimit); err == nil {
			reply, err = decodeReply(body)
		}
		if cap(body) > maxRetainedBody {
			body = nil
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("%w: %v mid-reply", ErrIOTimeout, err)
			}
			c.fail(fmt.Errorf("%w: receive: %w", ErrTransport, err))
			return
		}
		if reply.GoAway {
			// Unsolicited server-push drain notice (ID 0, never assigned):
			// not a routed reply, so it must be intercepted before the
			// in-flight lookup treats its ID as unknown and kills the
			// connection.
			c.draining.Store(true)
			continue
		}
		c.mu.Lock()
		p, ok := c.inflight[reply.ID]
		if ok {
			delete(c.inflight, reply.ID)
		}
		if c.ioTimeout > 0 {
			if len(c.inflight) == 0 {
				c.conn.SetReadDeadline(time.Time{})
			} else {
				c.conn.SetReadDeadline(time.Now().Add(c.ioTimeout))
			}
		}
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("%w: server answered unknown request id %d", ErrTransport, reply.ID))
			return
		}
		p.reply = reply
		if p.traceID != 0 {
			c.finishTrace(p, &reply)
		}
		close(p.done)
	}
}

// finishTrace closes out a sampled request's client-side span: the round
// trip is split into queue wait (encode and write lock, stamped by the
// submitting caller), the server's reported residency, and the remainder
// attributed to the network. The entry lands in the process-wide client
// recorder and the observer hook.
func (c *Client) finishTrace(p *pending, reply *Reply) {
	total := time.Since(p.submitT)
	queue := time.Duration(p.queueNs.Load())
	var server StageTiming
	if reply.Timing != nil {
		server = *reply.Timing
	}
	network := total - queue - time.Duration(server.TotalNs)
	if network < 0 {
		network = 0
	}
	outcome := "ok"
	if reply.Code != "" {
		outcome = reply.Code
	}
	trace.RecordClient(trace.Entry{
		TraceID: p.traceID,
		Time:    time.Now(),
		Side:    "client",
		Model:   c.hello.Model,
		Op:      opLabel(p.req.Op),
		Peer:    c.peer,
		Outcome: outcome,
		Queries: len(p.req.Queries),
		TotalNs: int64(total),
		Local: trace.Breakdown{
			QueueNs:   int64(queue),
			NetworkNs: int64(network),
		},
		Server: trace.Breakdown{
			QueueNs: server.QueueNs,
			ScoreNs: server.ScoreNs,
		},
		ServerTotalNs: server.TotalNs,
	})
}

// fail records the connection's terminal error (first caller wins), closes
// the conn, and delivers the error to every in-flight request. No request
// escapes it: submit registers a request before writing it, under the same
// lock that checks the sticky error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pend := c.inflight
	c.inflight = make(map[uint64]*pending)
	c.mu.Unlock()
	c.conn.Close()
	for _, p := range pend {
		p.err = err
		if p.traceID != 0 {
			trace.RecordClient(trace.Entry{
				TraceID: p.traceID,
				Time:    time.Now(),
				Side:    "client",
				Model:   c.hello.Model,
				Op:      opLabel(p.req.Op),
				Peer:    c.peer,
				Outcome: "transport",
				Queries: len(p.req.Queries),
				TotalNs: int64(time.Since(p.submitT)),
				Local:   trace.Breakdown{QueueNs: p.queueNs.Load()},
			})
		}
		close(p.done)
	}
}

// Err returns the connection's terminal transport error, or nil while it is
// still usable. Pools use it to discard broken connections.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Draining reports whether the server pushed a GoAway drain notice:
// it is shutting down gracefully, will answer what is already in flight,
// but should get no new work. Pools treat a draining connection like a
// dead one when placing new operations, without cutting off replies still
// owed.
func (c *Client) Draining() bool { return c.draining.Load() }

// Shard returns the served entry's shard descriptor from the handshake,
// nil when the server holds the whole model.
func (c *Client) Shard() *registry.ShardInfo { return c.hello.Shard }

// Dim returns the served model's dimensionality, learned in the handshake.
func (c *Client) Dim() int { return c.hello.Dim }

// Classes returns the served model's class count, learned in the handshake.
func (c *Client) Classes() int { return c.hello.Classes }

// MaxBatch returns the server's advertised per-request query limit.
func (c *Client) MaxBatch() int { return c.hello.MaxBatch }

// Model returns the name of the registry entry the connection is bound to.
func (c *Client) Model() string { return c.hello.Model }

// ModelVersion returns the served model's publication version at handshake
// time (hot swaps after the handshake bump it server-side).
func (c *Client) ModelVersion() int { return c.hello.ModelVersion }

// ServerHello returns the full accepted handshake answer, including the
// served model's public encoder setup for auto-configuring edges.
func (c *Client) ServerHello() ServerHello { return c.hello }

// Classify sends one prepared (already obfuscated) query and returns the
// predicted label and scores. The query travels in the form the caller
// built it: a Packed query as its two bit-planes, a Vector query in full
// precision.
func (c *Client) Classify(q Query) (int, []float64, error) {
	return c.ClassifyContext(nil, q)
}

// ClassifyContext is Classify bounded by ctx: its remaining deadline is
// stamped onto the frame as the request budget (BudgetNs) so the server
// can shed it once expired, and the wait aborts with the typed
// ErrDeadlineExceeded (deadline) or an ErrTransport-wrapped error (plain
// cancellation, e.g. a hedged attempt losing its race). A nil or
// deadline-free ctx behaves exactly like Classify.
func (c *Client) ClassifyContext(ctx context.Context, q Query) (int, []float64, error) {
	p, err := c.submit(ctx, Request{Queries: []Query{q}})
	if err != nil {
		return 0, nil, err
	}
	reply, err := p.waitCtx(ctx)
	if err != nil {
		return 0, nil, err
	}
	if err := replyError(reply, p.req); err != nil {
		return 0, nil, err
	}
	return reply.Results[0].Label, reply.Results[0].Scores, nil
}

// Labels extracts the predicted labels from classification results.
func Labels(results []Result) []int {
	labels := make([]int, len(results))
	for i, r := range results {
		labels[i] = r.Label
	}
	return labels
}

// ClassifyBatch classifies a batch of prepared queries, batching up to
// MaxBatch vectors per round trip, and returns the predicted labels in
// order. It stops at the first failure, returning the labels answered so
// far.
func (c *Client) ClassifyBatch(qs []Query) ([]int, error) {
	results, err := c.ClassifyBatchScores(qs)
	return Labels(results), err
}

// ClassifyBatchScores is ClassifyBatch returning full results. All chunks
// are pipelined onto the connection at once — the server may answer them
// out of order, and results are reassembled in query order — so a large
// batch costs one round trip plus server time, not one round trip per
// MaxBatch chunk.
func (c *Client) ClassifyBatchScores(qs []Query) ([]Result, error) {
	return c.ClassifyBatchScoresContext(nil, qs)
}

// ClassifyBatchScoresContext is ClassifyBatchScores bounded by ctx: every
// chunk frame carries the remaining budget, and waits abort on expiry with
// the typed ErrDeadlineExceeded.
func (c *Client) ClassifyBatchScoresContext(ctx context.Context, qs []Query) ([]Result, error) {
	chunk := c.hello.MaxBatch
	if chunk <= 0 {
		chunk = DefaultMaxBatch
	}
	type chunkPending struct {
		start int
		p     *pending
	}
	pendings := make([]chunkPending, 0, (len(qs)+chunk-1)/chunk)
	var submitErr error
	for start := 0; start < len(qs); start += chunk {
		end := start + chunk
		if end > len(qs) {
			end = len(qs)
		}
		p, err := c.submit(ctx, Request{Queries: qs[start:end]})
		if err != nil {
			submitErr = fmt.Errorf("offload: batch at query %d: %w", start, err)
			break
		}
		pendings = append(pendings, chunkPending{start: start, p: p})
	}
	out := make([]Result, 0, len(qs))
	for _, cp := range pendings {
		reply, err := cp.p.waitCtx(ctx)
		if err == nil {
			err = replyError(reply, cp.p.req)
		}
		if err != nil {
			return out, fmt.Errorf("offload: batch at query %d: %w", cp.start, err)
		}
		out = append(out, reply.Results...)
	}
	return out, submitErr
}

// ListModels asks the server for its current registry listing — every
// served model's name, version, geometry and public encoder setup — so a
// client can discover models without out-of-band configuration.
func (c *Client) ListModels() ([]ModelListing, error) {
	p, err := c.submit(nil, Request{Op: OpListModels})
	if err != nil {
		return nil, err
	}
	reply, err := p.wait()
	if err != nil {
		return nil, err
	}
	if reply.Code != "" {
		return nil, codeError(reply.Code, reply.Detail)
	}
	return reply.Models, nil
}

// PartialScores asks the server for the raw int64 dot of every query
// against every class of its served (possibly sliced) model, plus the
// per-class Σv² (OpPartialScores). It is the int8 adapter of
// PartialScoresContext: each query, one symbol per dimension and already
// sliced to the server's dimension range, is checked against the alphabet
// (ErrSymbolOutOfRange, before anything is sent) and split into planes.
func (c *Client) PartialScores(packed [][]int8) ([][]int64, []float64, error) {
	qs := make([]Query, len(packed))
	for i, q := range packed {
		for j, sym := range q {
			if sym < MinSymbol || sym > MaxSymbol {
				return nil, nil, fmt.Errorf("%w: query %d dimension %d carries symbol %d, alphabet is [%d,%d]",
					ErrSymbolOutOfRange, i, j, sym, MinSymbol, MaxSymbol)
			}
		}
		qs[i] = Query{Packed: intscore.Split(q)}
	}
	return c.PartialScoresContext(nil, qs)
}

// PartialScoresContext asks the server for the partial scores of packed
// queries (see PartialScores), bounded by ctx: the frame carries the
// remaining budget and the wait aborts on expiry or cancellation. A shard
// coordinator sends each full query's Slice for the server's dimension
// range. Full-precision queries are refused with ErrPartialUnsupported;
// transport failures wrap ErrTransport and may be retried on another
// replica of the same shard.
func (c *Client) PartialScoresContext(ctx context.Context, qs []Query) ([][]int64, []float64, error) {
	p, err := c.submit(ctx, Request{Op: OpPartialScores, Queries: qs})
	if err != nil {
		return nil, nil, err
	}
	reply, err := p.waitCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	if reply.Code != "" {
		return nil, nil, codeError(reply.Code, reply.Detail)
	}
	if len(reply.Partials) != len(qs) {
		return nil, nil, fmt.Errorf("offload: server answered %d of %d partial-score queries",
			len(reply.Partials), len(qs))
	}
	return reply.Partials, reply.NormSq, nil
}

// replyError converts a routed reply into the request's outcome.
func replyError(reply Reply, req Request) error {
	if reply.Code != "" {
		return codeError(reply.Code, reply.Detail)
	}
	if len(reply.Results) != len(req.Queries) {
		return fmt.Errorf("offload: server answered %d of %d queries",
			len(reply.Results), len(req.Queries))
	}
	return nil
}

// Ping round-trips an empty in-band OpPing frame: proof the peer's serve
// loop is alive, without dialing a new connection. Pools ping idle pooled
// connections on a timer so a dead peer is noticed before a caller is
// handed its connection, and the pings also keep the connection inside
// the server's idle bound. Every v6 server implements the op, so any
// refusal is returned as the typed error it is.
func (c *Client) Ping(ctx context.Context) error {
	p, err := c.submit(ctx, Request{Op: OpPing})
	if err != nil {
		return err
	}
	reply, err := p.waitCtx(ctx)
	if err != nil {
		return err
	}
	if reply.Code != "" {
		return codeError(reply.Code, reply.Detail)
	}
	return nil
}

// IOTimeout returns the connection's configured i/o timeout (0 = none).
func (c *Client) IOTimeout() time.Duration { return c.ioTimeout }

// Close closes the connection, failing any in-flight requests with an
// error wrapping ErrTransport.
func (c *Client) Close() error {
	c.fail(fmt.Errorf("%w: client closed", ErrTransport))
	return nil
}

// Wiretap records the queries that cross the wire — the honest-but-curious
// observer of §I that the obfuscation defends against. Tap a server's
// listener and serve on the result: the query of every classify or
// partial-score frame any accepted connection reads is then also delivered
// to the tap.
type Wiretap struct {
	mu      sync.Mutex
	queries [][]float64
}

// Queries returns copies of every query vector seen so far, packed
// queries expanded to their symbol values.
func (w *Wiretap) Queries() [][]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([][]float64, len(w.queries))
	for i, q := range w.queries {
		out[i] = append([]float64(nil), q...)
	}
	return out
}

// record keeps a copy of a decoded query, a packed one expanded to its
// symbol values.
func (w *Wiretap) record(q Query) {
	v := append([]float64(nil), q.Vector...)
	if q.Vector == nil {
		v = make([]float64, q.Packed.Dim)
		for i := range v {
			v[i] = float64(q.Packed.Symbol(i))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.queries = append(w.queries, v)
}

// decode records every query in one connection's client-to-server stream.
// Interception happens at the message layer — the header and Hello, then
// length-prefixed request frames parsed by the same codec the server uses
// — rather than raw bytes: the eavesdropper knows the protocol, as any
// network observer of a published format would. It stops at the first
// frame the server would not parse either. Closing pr on exit turns later
// mirror writes into no-ops instead of blocking the connection.
func (w *Wiretap) decode(pr *io.PipeReader) {
	defer pr.Close()
	br := bufio.NewReader(pr)
	if v, err := readHeader(br); err != nil || v != ProtocolVersion {
		return
	}
	if _, err := readHelloFrame(br); err != nil {
		return
	}
	fb := new(frameBufs)
	var body []byte
	for {
		var err error
		if body, err = readFrame(br, body, maxFrameLen); err != nil {
			return
		}
		req, err := decodeRequest(body, fb)
		if err != nil {
			return
		}
		if req.Op != OpClassify && req.Op != OpPartialScores {
			continue
		}
		for _, q := range req.Queries {
			w.record(q)
		}
	}
}

// tapListener mirrors what every accepted connection reads into the tap.
type tapListener struct {
	net.Listener
	tap *Wiretap
}

// Tap wraps lis so every Query read from any connection it accepts is also
// recorded by the returned Wiretap.
func Tap(lis net.Listener) (net.Listener, *Wiretap) {
	tap := &Wiretap{}
	return &tapListener{Listener: lis, tap: tap}, tap
}

// Accept wraps the accepted connection in a mirror, preserving CloseWrite
// exactly when the underlying connection has it (see countConn).
func (l *tapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	go l.tap.decode(pr)
	t := &tappedConn{Conn: conn, pw: pw}
	if _, ok := conn.(closeWriter); ok {
		return &tappedConnCW{t}, nil
	}
	return t, nil
}

// tappedConn duplicates the bytes it reads into the tap's decoder.
type tappedConn struct {
	net.Conn
	pw *io.PipeWriter
}

// Read forwards to the real connection and mirrors the bytes read.
func (t *tappedConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		// Pipe errors (decoder done) must not break the real connection.
		_, _ = t.pw.Write(p[:n])
	}
	return n, err
}

// Close closes both the real connection and the mirror pipe.
func (t *tappedConn) Close() error {
	_ = t.pw.Close()
	return t.Conn.Close()
}

type tappedConnCW struct {
	*tappedConn
}

func (c *tappedConnCW) CloseWrite() error {
	return c.Conn.(closeWriter).CloseWrite()
}
