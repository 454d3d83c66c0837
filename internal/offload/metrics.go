package offload

import (
	"net"

	"privehd/internal/metrics"
)

// Server-side instrumentation, registered on the process-global
// metrics.Default registry so one /metrics scrape covers every Server in
// the process. All of these are touched on hot paths and must stay
// zero-alloc: counters and gauges are single atomics, and every Vec child
// used per frame is resolved through the lock-free single-label fast path.
var (
	mConnsTotal = metrics.Default.NewCounter(
		"privehd_server_connections_total",
		"Connections accepted by the offload server, including ones later rejected at the handshake.")
	mConnsActive = metrics.Default.NewGauge(
		"privehd_server_connections_active",
		"Currently open offload server connections.")
	mRejections = metrics.Default.NewCounterVec(
		"privehd_server_rejections_total",
		"Typed wire rejections by failure code (handshake codes, per-frame reply codes, and overload).",
		"reason")
	mRequests = metrics.Default.NewCounterVec(
		"privehd_server_requests_total",
		"Request frames answered, by operation.",
		"op")
	mQueries = metrics.Default.NewCounterVec(
		"privehd_server_queries_total",
		"Queries classified, by model name. One batch frame counts each of its queries.",
		"model")
	mRequestSeconds = metrics.Default.NewHistogramVec(
		"privehd_server_request_seconds",
		"Server-side latency of one request frame, from decode to reply encode, by operation.",
		nil, "op")
	mInflight = metrics.Default.NewGauge(
		"privehd_server_inflight_requests",
		"Request frames currently being answered across all connections.")
	mReadBytes = metrics.Default.NewCounter(
		"privehd_server_read_bytes_total",
		"Bytes read from offload client connections.")
	mWrittenBytes = metrics.Default.NewCounter(
		"privehd_server_written_bytes_total",
		"Bytes written to offload client connections.")
)

// opLabel maps a wire op to its metric label; unknown ops collapse to one
// fixed label so a peer sending junk op bytes cannot mint unbounded label
// cardinality.
func opLabel(op Op) string {
	switch op {
	case OpClassify:
		return "classify"
	case OpListModels:
		return "list-models"
	case OpPartialScores:
		return "partial-scores"
	case OpPing:
		return "ping"
	default:
		return "unsupported"
	}
}

// closeWriter is the half-close capability gracefulClose relies on to send
// a clean FIN instead of a RST on shutdown.
type closeWriter interface{ CloseWrite() error }

// countingConn wraps an accepted connection to meter bytes in and out. It
// deliberately does NOT implement CloseWrite itself: wrapping a connection
// must not grant net.Pipe-style conns a half-close they don't have, or
// gracefulClose would misbehave. countConn picks the wider wrapper when
// the underlying conn supports it.
type countingConn struct {
	net.Conn
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		mReadBytes.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		mWrittenBytes.Add(uint64(n))
	}
	return n, err
}

// countingConnCW additionally forwards CloseWrite for conns that have it
// (TCP), preserving the graceful-shutdown FIN path through the wrapper.
type countingConnCW struct {
	countingConn
}

func (c *countingConnCW) CloseWrite() error {
	return c.Conn.(closeWriter).CloseWrite()
}

// countConn wraps conn with byte metering, preserving CloseWrite exactly
// when the underlying connection provides it.
func countConn(conn net.Conn) net.Conn {
	if _, ok := conn.(closeWriter); ok {
		return &countingConnCW{countingConn{Conn: conn}}
	}
	return &countingConn{Conn: conn}
}
