package privehd

import (
	"context"
	"log/slog"
	"net"
	"time"

	"privehd/internal/offload"
)

// ProtocolVersion is the version byte of the offloaded-inference wire
// protocol: v6, length-prefixed binary frames with packed queries as two
// bit-planes (see the package documentation for its frames). Serve and
// Connect handshake on it, servers refuse every other version with
// ErrVersionMismatch, and clients refuse a server that answers with any
// other version's header the same way.
const ProtocolVersion = offload.ProtocolVersion

// Typed protocol failures, surfaced by Connect and Client calls; test with
// errors.Is. ErrUnknownModel lives in registry.go beside the Registry.
var (
	// ErrVersionMismatch reports a peer speaking a different protocol
	// version.
	ErrVersionMismatch = offload.ErrVersionMismatch
	// ErrGeometryMismatch reports an edge whose encoder dimensionality or
	// class count does not match the served model.
	ErrGeometryMismatch = offload.ErrGeometryMismatch
	// ErrSymbolOutOfRange reports a one-int8-per-dimension query carrying a
	// symbol outside the advertised −2…+1 alphabet. A quantized query's
	// two bit-planes cannot carry one.
	ErrSymbolOutOfRange = offload.ErrSymbolOutOfRange
	// ErrBatchTooLarge reports a request exceeding the server's advertised
	// batch limit.
	ErrBatchTooLarge = offload.ErrBatchTooLarge
	// ErrTransport reports a connection-level failure — dial, send,
	// receive, i/o timeout, or a closed client — as opposed to a typed
	// protocol rejection. Classification is idempotent, so operations
	// failing with ErrTransport are safe to retry elsewhere; pool and
	// cluster clients do exactly that. Errors that do NOT wrap ErrTransport came
	// from a live server and would repeat on any replica.
	ErrTransport = offload.ErrTransport
	// ErrIOTimeout reports that a connection bounded by WithPoolIOTimeout
	// saw no reply progress for the full timeout while requests were in
	// flight. It always also wraps ErrTransport.
	ErrIOTimeout = offload.ErrIOTimeout
	// ErrOverloaded reports a server that refused the connection because it
	// is at its configured connection limit (WithMaxConns). It wraps
	// ErrTransport: the rejection is a property of that server right now,
	// so pools back off and clusters fail the operation over to another
	// replica.
	ErrOverloaded = offload.ErrOverloaded
	// ErrDeadlineExceeded reports a request whose context deadline ran out:
	// either the client's remaining budget was exhausted before sending, the
	// wait was cut short by the deadline, or the server shed the work
	// because its stamped budget (Request.BudgetNs) expired in queue. It
	// deliberately does NOT wrap ErrTransport — retrying a request that is
	// already out of time only wastes fleet capacity.
	ErrDeadlineExceeded = offload.ErrDeadlineExceeded
	// ErrServerClosed is what Serve returns on a server already closed or
	// shut down; the listener it was handed is closed too, as net/http
	// does.
	ErrServerClosed = offload.ErrServerClosed
)

// ServerOption configures a Server.
type ServerOption = offload.ServerOption

// WithMaxBatch sets the per-request query limit the server advertises in
// its handshake and enforces (default 256).
func WithMaxBatch(n int) ServerOption { return offload.WithMaxBatch(n) }

// WithServerWorkers bounds the server's scoring (default GOMAXPROCS): at
// most n queries are scored concurrently across every connection, a batch
// is split over at most n goroutines, and each query holds its scoring
// token only while it is scored, so one connection's large batch cannot
// monopolize the server. (The pipeline option WithWorkers is the
// client/training-side counterpart.)
func WithServerWorkers(n int) ServerOption { return offload.WithWorkers(n) }

// WithMaxConns bounds how many connections the server holds open at once
// (default unlimited). Connections arriving past the limit are answered
// with a typed overload rejection (ErrOverloaded — retryable, so pools
// back off and clusters fail over) and closed, instead of hanging until a
// timeout.
func WithMaxConns(n int) ServerOption { return offload.WithMaxConns(n) }

// WithSlowRequestLog emits a structured warning for every request whose
// server-side residency meets threshold: trace ID, model, operation, peer,
// outcome and the per-stage latency breakdown. It fires for every slow
// request regardless of the trace sampling rate — the flight recorder and
// this log are how untraced slow requests still get caught.
func WithSlowRequestLog(log *slog.Logger, threshold time.Duration) ServerOption {
	return offload.WithSlowRequestLog(log, threshold)
}

// Server hosts model serving for offloaded inference (§III-C): versioned
// handshake, batched queries, a reader goroutine per connection, a
// goroutine per frame and a bound on concurrent scoring shared across
// connections. Behind every server sits a Registry — a single-pipeline
// server (NewServer) is a registry with one model published under
// DefaultModelName.
type Server struct {
	inner *offload.Server
	reg   *Registry
}

// NewServer wraps a trained pipeline for serving, publishing its model
// under DefaultModelName in a fresh registry (reachable via Registry, so
// even a single-model server can be hot-swapped later). The pipeline's
// model must not be retrained while published; Train builds a fresh model,
// so retrain-then-Swap is safe.
func NewServer(p *Pipeline, opts ...ServerOption) (*Server, error) {
	reg := NewRegistry()
	if err := reg.Register(DefaultModelName, p); err != nil {
		return nil, err
	}
	return NewRegistryServer(reg, opts...), nil
}

// Registry returns the model registry behind the server; Register, Swap
// and Deregister on it take effect live.
func (s *Server) Registry() *Registry { return s.reg }

// Serve accepts connections on lis until ctx is cancelled, the listener
// fails, or Close/Shutdown is called. Each connection is handled on its
// own goroutine and may stream any number of batched requests. Serve
// returns nil after a clean stop, and ErrServerClosed, closing lis, when
// the server was already closed.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	return s.inner.Serve(ctx, lis)
}

// Shutdown stops accepting connections, lets in-flight requests finish
// their replies, then closes all connections. It returns ctx.Err() if the
// context expires first.
func (s *Server) Shutdown(ctx context.Context) error { return s.inner.Shutdown(ctx) }

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error { return s.inner.Close() }

// Served returns how many queries have been answered.
func (s *Server) Served() int { return s.inner.Served() }

// Serve hosts the trained pipeline on lis until ctx is cancelled — the
// one-call cloud side of the §III-C split.
func Serve(ctx context.Context, lis net.Listener, p *Pipeline, opts ...ServerOption) error {
	s, err := NewServer(p, opts...)
	if err != nil {
		return err
	}
	return s.Serve(ctx, lis)
}

// Wiretap records every query hypervector a tapped listener's
// connections read — the honest-but-curious observer on the server's side
// of the wire that the §III-C obfuscation defends against.
type Wiretap = offload.Wiretap

// Tap wraps a server's listener so every query any accepted connection
// reads is also delivered to the returned Wiretap. Serve on the wrapped
// listener; clients connect as usual.
func Tap(lis net.Listener) (net.Listener, *Wiretap) { return offload.Tap(lis) }
