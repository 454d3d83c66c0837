// Package chaos wraps net.Listener and net.Conn with deterministic,
// seeded fault injection for resilience testing.
//
// The wrapper speaks pure net interfaces, so it slots between any server
// and its listener without the server knowing: accepts can be refused,
// reads can be delayed or delivered in small chunks, a connection can
// stall for a long beat mid-stream, and writes can cut the connection
// mid-frame. Every decision comes from a PRNG seeded from Config.Seed
// and the per-listener accept ordinal, so a given (seed, schedule of
// accepts) replays the same faults — failures found under chaos are
// reproducible by rerunning with the same seed.
//
// Faults are injected below the protocol layer on purpose: the client
// under test must recover using only its public resilience machinery
// (typed errors, retries, hedges, ejection), exactly as it would against
// a flaky production network.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config describes the fault mix. All probabilities are per-connection
// in [0, 1]; zero-valued fields inject nothing, so Config{} is a no-op
// wrapper.
type Config struct {
	// Seed fixes the fault schedule. Two Wrap calls with equal Config
	// inject identical faults for the same sequence of accepts.
	Seed int64

	// Latency delays every read on an afflicted connection by a uniform
	// duration in [Latency/2, Latency]. Applied to LatencyProb of conns.
	Latency     time.Duration
	LatencyProb float64

	// StallProb stalls one read per afflicted connection for Stall
	// (default 250ms) — the tail-latency straggler hedging exists for.
	Stall     time.Duration
	StallProb float64

	// CutProb cuts the connection after a random prefix of some write —
	// a mid-frame drop the peer sees as a transport error.
	CutProb float64

	// RefuseProb makes Accept close the connection immediately, before
	// the handshake — a connection-refused-after-accept failure.
	RefuseProb float64

	// ChunkReads caps bytes delivered per Read on latency-afflicted
	// connections, forcing the peer through many short reads. 0 leaves
	// read sizes alone.
	ChunkReads int
}

// ParseSpec builds a Config from a compact comma-separated spec, e.g.
//
//	"seed=7,latency=5ms,latencyprob=0.5,stall=200ms,stallprob=0.1,cut=0.05,refuse=0.05,chunk=64"
//
// Unknown keys are an error so typos fail loudly in CI rather than
// silently injecting nothing.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad spec term %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "latency":
			cfg.Latency, err = time.ParseDuration(v)
		case "latencyprob":
			cfg.LatencyProb, err = strconv.ParseFloat(v, 64)
		case "stall":
			cfg.Stall, err = time.ParseDuration(v)
		case "stallprob":
			cfg.StallProb, err = strconv.ParseFloat(v, 64)
		case "cut":
			cfg.CutProb, err = strconv.ParseFloat(v, 64)
		case "refuse":
			cfg.RefuseProb, err = strconv.ParseFloat(v, 64)
		case "chunk":
			cfg.ChunkReads, err = strconv.Atoi(v)
		default:
			return cfg, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad value for %q: %v", k, err)
		}
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 250 * time.Millisecond
	}
	return cfg, nil
}

// Wrap returns a listener that injects cfg's faults into every accepted
// connection. The fault schedule is deterministic in (cfg.Seed, accept
// ordinal); wrapping distinct listeners with distinct seeds gives each
// replica an independent but reproducible failure personality.
func Wrap(lis net.Listener, cfg Config) net.Listener {
	return &listener{Listener: lis, cfg: cfg}
}

type listener struct {
	net.Listener
	cfg Config
	mu  sync.Mutex
	n   int64 // accept ordinal, drives the per-conn seed
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		ordinal := l.n
		l.n++
		l.mu.Unlock()
		rng := newConnRNG(l.cfg.Seed, ordinal)
		if l.cfg.RefuseProb > 0 && rng.Float64() < l.cfg.RefuseProb {
			conn.Close()
			continue // refused: hand the server the NEXT conn
		}
		return wrapConn(conn, l.cfg, rng), nil
	}
}

// newConnRNG derives one connection's PRNG: the schedule depends only on
// the listener seed and how many conns it accepted before this one.
func newConnRNG(seed, ordinal int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 0x9e3779b9*ordinal))
}

// plan is the faults one connection will experience, decided entirely at
// accept time so the data path only consults precomputed fields.
type plan struct {
	readDelay time.Duration // per-read added latency (0 = none)
	chunk     int           // max bytes per Read (0 = unlimited)
	stallAt   int64         // stall once when total bytes read crosses this (-1 = never)
	stallFor  time.Duration
	cutAt     int64 // cut the conn when total bytes written crosses this (-1 = never)
}

func wrapConn(conn net.Conn, cfg Config, rng *rand.Rand) net.Conn {
	p := plan{stallAt: -1, cutAt: -1}
	if cfg.Latency > 0 && cfg.LatencyProb > 0 && rng.Float64() < cfg.LatencyProb {
		half := cfg.Latency / 2
		p.readDelay = half + time.Duration(rng.Int63n(int64(half)+1))
		p.chunk = cfg.ChunkReads
	}
	if cfg.StallProb > 0 && rng.Float64() < cfg.StallProb {
		p.stallAt = rng.Int63n(4096)
		p.stallFor = cfg.Stall
	}
	if cfg.CutProb > 0 && rng.Float64() < cfg.CutProb {
		p.cutAt = rng.Int63n(4096)
	}
	fc := &faultConn{Conn: conn, plan: p}
	if _, ok := conn.(interface{ CloseWrite() error }); ok {
		return &faultConnCW{faultConn: fc}
	}
	return fc
}

// faultConn applies a plan to one connection. Counters are guarded by
// distinct mutexes for the read and write sides, matching net.Conn's
// one-reader/one-writer concurrency contract without serialising the
// two directions against each other.
type faultConn struct {
	net.Conn
	plan plan

	readMu    sync.Mutex
	bytesRead int64
	stalled   bool

	writeMu      sync.Mutex
	bytesWritten int64
	cut          bool
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	delay := c.plan.readDelay
	stall := time.Duration(0)
	if c.plan.stallAt >= 0 && !c.stalled && c.bytesRead >= c.plan.stallAt {
		c.stalled = true
		stall = c.plan.stallFor
	}
	c.readMu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if c.plan.chunk > 0 && len(p) > c.plan.chunk {
		p = p[:c.plan.chunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.readMu.Lock()
		c.bytesRead += int64(n)
		c.readMu.Unlock()
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.writeMu.Lock()
	cutNow := false
	var prefix int64 = -1
	if c.plan.cutAt >= 0 && !c.cut && c.bytesWritten+int64(len(p)) > c.plan.cutAt {
		c.cut = true
		cutNow = true
		prefix = c.plan.cutAt - c.bytesWritten
		if prefix < 0 {
			prefix = 0
		}
	}
	c.writeMu.Unlock()
	if cutNow {
		// Deliver a partial frame, then kill the conn so the peer sees
		// an abrupt transport failure mid-message.
		if prefix > 0 {
			c.Conn.Write(p[:prefix])
		}
		c.Conn.Close()
		return int(prefix), net.ErrClosed
	}
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.writeMu.Lock()
		c.bytesWritten += int64(n)
		c.writeMu.Unlock()
	}
	return n, err
}

// faultConnCW forwards CloseWrite for conns that have it (TCP), so the
// server's graceful FIN path still works through the chaos wrapper —
// faults must not accidentally break clean shutdown.
type faultConnCW struct {
	*faultConn
}

func (c *faultConnCW) CloseWrite() error {
	return c.Conn.(interface{ CloseWrite() error }).CloseWrite()
}
