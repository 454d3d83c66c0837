// Package cluster scales the client side of the offloaded-inference split
// from one connection to a serving fleet — the "replica serving" layer of
// the MLaaS framing: Prive-HD's obfuscated queries are cheap enough to
// answer in the cloud at scale, so one model ends up behind many listeners
// and many edge callers end up sharing a few connections.
//
// Two layers compose:
//
//   - Pool multiplexes any number of concurrent callers over a small,
//     bounded set of pipelined connections to one address. Connections
//     are dialed on demand (with exponential backoff after failures),
//     spill to a new connection when every live one is saturated, are
//     reaped after sitting idle, and are discarded the moment their
//     transport breaks. A standalone pool retries an operation that
//     fails with offload.ErrTransport once on a different connection —
//     classification is idempotent, so the retry is safe. A cluster's
//     pools make one attempt per visit: the cluster's failover loop is
//     the only retry loop of a cluster call.
//
//   - Cluster balances operations across a set of replica addresses, each
//     behind its own Pool: every attempt goes to the least-in-flight
//     replica, ties broken by a rotating start so an idle fleet shares
//     sequential calls evenly. A replica is ejected on transport failure,
//     periodic lightweight health probes re-admit it once it answers the
//     handshake again, and failover is transparent — an operation that
//     dies with a replica is retried on the next one, so callers only see
//     an error when every distinct replica has failed (ErrNoHealthyReplicas)
//     or a live server answered with a typed protocol error.
//
// Typed protocol rejections (unknown model, geometry, oversized batch …)
// are never retried anywhere: they were produced by a healthy server and
// would be identical on any replica.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"privehd/internal/offload"
)

// Pool defaults, used when the corresponding PoolConfig field is zero.
const (
	// DefaultSize is the largest number of connections a Pool keeps to its
	// address.
	DefaultSize = 4
	// DefaultIOTimeout bounds reply progress on pooled connections; a
	// negative PoolConfig.IOTimeout disables the bound.
	DefaultIOTimeout = 30 * time.Second
	// DefaultIdleTimeout is how long an unused connection may linger
	// before the reaper closes it; a negative PoolConfig.IdleTimeout
	// disables reaping.
	DefaultIdleTimeout = 90 * time.Second
	// DefaultDialTimeout bounds one connection attempt.
	DefaultDialTimeout = 5 * time.Second
	// DefaultMaxBackoff caps the exponential redial backoff.
	DefaultMaxBackoff = 2 * time.Second

	// backoffBase seeds the exponential redial backoff.
	backoffBase = 50 * time.Millisecond
	// maxInFlightPerConn is how many requests may be outstanding on one
	// connection before the pool prefers dialing another (pipelining means
	// a connection is never blocked, but spreading load shortens per-reply
	// latency under bursts).
	maxInFlightPerConn = 32
	// probeTimeout bounds one health probe's dial+handshake.
	probeTimeout = 2 * time.Second
)

// ErrPoolClosed reports an operation on a closed Pool (or Cluster). It
// wraps offload.ErrTransport so a Cluster treats a racing per-replica
// close like any other connection loss.
var ErrPoolClosed = fmt.Errorf("%w: pool closed", offload.ErrTransport)

// ErrNoHealthyReplicas reports that a Cluster operation failed on every
// distinct replica it could try. It wraps offload.ErrTransport: the
// failure is connection-shaped (retryable later), not a protocol verdict.
var ErrNoHealthyReplicas = fmt.Errorf("%w: no healthy replica available", offload.ErrTransport)

// PoolConfig configures a Pool. Zero fields take the defaults above;
// IOTimeout and IdleTimeout use negative values to mean "disabled".
type PoolConfig struct {
	// Network and Addr locate the server ("tcp", "host:port").
	Network string
	Addr    string
	// Hello is sent on every connection's handshake: the edge geometry
	// (Dim 0 = auto-configure) and the served model to bind to.
	Hello offload.Hello
	// Size bounds how many connections the pool keeps.
	Size int
	// IOTimeout is handed to every connection as offload.WithIOTimeout.
	IOTimeout time.Duration
	// IdleTimeout is how long an unused connection survives.
	IdleTimeout time.Duration
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// MaxBackoff caps the exponential backoff between failed dials.
	MaxBackoff time.Duration
	// PingInterval is how long a connection may sit idle before the pool
	// pings it in-band (offload.OpPing) to prove the peer's serve loop is
	// still alive — a dead peer is then dropped before a caller is handed
	// its connection, without burning a dial. Zero takes
	// DefaultPingInterval; negative disables pinging.
	PingInterval time.Duration
}

// withDefaults resolves zero fields to the package defaults.
func (c PoolConfig) withDefaults() PoolConfig {
	if c.Size <= 0 {
		c.Size = DefaultSize
	}
	switch {
	case c.IOTimeout == 0:
		c.IOTimeout = DefaultIOTimeout
	case c.IOTimeout < 0:
		c.IOTimeout = 0
	}
	switch {
	case c.IdleTimeout == 0:
		c.IdleTimeout = DefaultIdleTimeout
	case c.IdleTimeout < 0:
		c.IdleTimeout = 0
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	switch {
	case c.PingInterval == 0:
		c.PingInterval = DefaultPingInterval
	case c.PingInterval < 0:
		c.PingInterval = 0
	}
	return c
}

// poolConn is one pooled connection. Its counters are guarded by the
// pool's mutex.
type poolConn struct {
	c        *offload.Client
	inflight int
	lastUse  time.Time
}

// Pool multiplexes concurrent callers over a bounded set of pipelined
// connections to one server. All methods are safe for concurrent use.
type Pool struct {
	cfg      PoolConfig
	attempts int // per operation: 2 standalone, 1 under a cluster

	mu          sync.Mutex
	conns       []*poolConn
	dialing     int
	closed      bool
	backoff     time.Duration
	nextDial    time.Time
	lastDialErr error
	hello       offload.ServerHello
	haveHello   bool
	dials       int
	changed     chan struct{} // closed+replaced when a dial lands or fails

	stopUpkeep chan struct{} // nil when neither reaping nor pinging is on
	upkeepDone chan struct{}
}

// NewPool returns a pool for the configured address. No connection is
// dialed until the first operation (use Hello to dial eagerly). Close it
// when done.
func NewPool(cfg PoolConfig) *Pool { return newPool(cfg, 2) }

// newPool is NewPool making at most attempts tries per operation.
func newPool(cfg PoolConfig, attempts int) *Pool {
	p := &Pool{cfg: cfg.withDefaults(), attempts: attempts, changed: make(chan struct{})}
	if p.cfg.IdleTimeout > 0 || p.cfg.PingInterval > 0 {
		p.stopUpkeep = make(chan struct{})
		p.upkeepDone = make(chan struct{})
		go p.upkeepLoop()
	}
	return p
}

// signalChanged wakes every acquire waiting for a dial to land or fail.
// Callers must hold p.mu.
func (p *Pool) signalChanged() {
	close(p.changed)
	p.changed = make(chan struct{})
}

// Addr returns the pooled server address.
func (p *Pool) Addr() string { return p.cfg.Addr }

// acquire returns a usable connection with its in-flight count already
// incremented, dialing a new one when every live connection is saturated
// and the pool has room. The context bounds dialing and waiting. The time
// spent here — dialing, backing off, waiting for a slot — is the pool's
// contribution to client-queue latency, observed per address.
func (p *Pool) acquire(ctx context.Context) (*poolConn, error) {
	start := time.Now()
	pc, err := p.acquireConn(ctx)
	if err == nil {
		cmPoolAcquireWait.With(p.cfg.Addr).Observe(time.Since(start).Seconds())
	}
	return pc, err
}

// acquireConn is the acquisition loop behind acquire.
func (p *Pool) acquireConn(ctx context.Context) (*poolConn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		// Drop connections whose transport already broke, then pick the
		// least-loaded live one. Connections whose server pushed a GoAway
		// drain notice are set aside: they still carry their in-flight
		// replies, but new work goes to a fresh connection (or a fresh
		// dial) whenever one is possible — the point of the drain
		// notice is that a coordinator stops feeding a replica that is
		// about to half-close.
		live := p.conns[:0]
		var dead []*poolConn
		for _, pc := range p.conns {
			if pc.c.Err() != nil {
				dead = append(dead, pc)
				continue
			}
			live = append(live, pc)
		}
		p.conns = live
		var best, draining *poolConn
		for _, pc := range p.conns {
			if pc.c.Draining() {
				if draining == nil || pc.inflight < draining.inflight {
					draining = pc
				}
				continue
			}
			if best == nil || pc.inflight < best.inflight {
				best = pc
			}
		}
		room := len(p.conns)+p.dialing < p.cfg.Size
		if best != nil && (best.inflight < maxInFlightPerConn || !room) {
			best.inflight++
			best.lastUse = time.Now()
			p.syncGauges()
			p.mu.Unlock()
			closeAll(dead)
			return best, nil
		}
		if room {
			if wait := time.Until(p.nextDial); wait > 0 {
				// Still backing off from a failed dial: reuse a saturated
				// live connection rather than stampede the server, and
				// fail fast when there is nothing to fall back to.
				if best == nil {
					best = draining
				}
				if best != nil {
					best.inflight++
					best.lastUse = time.Now()
					p.syncGauges()
					p.mu.Unlock()
					closeAll(dead)
					return best, nil
				}
				err := fmt.Errorf("%w: %s %w %v after dial failure: %v",
					offload.ErrTransport, p.cfg.Addr, errDialBackoff,
					wait.Round(time.Millisecond), p.lastDialErr)
				p.mu.Unlock()
				closeAll(dead)
				return nil, err
			}
			p.dialing++
			p.mu.Unlock()
			closeAll(dead)
			pc, err := p.dial(ctx)
			if err != nil {
				return nil, err
			}
			return pc, nil
		}
		if draining != nil {
			// Every slot is a draining connection and there is no room to
			// dial: route here as a last resort (the server may still
			// answer, and a refusal surfaces as a retryable transport
			// error) rather than wait for a change that will never come.
			draining.inflight++
			draining.lastUse = time.Now()
			p.syncGauges()
			p.mu.Unlock()
			closeAll(dead)
			return draining, nil
		}
		// No usable connection and no room: every slot is a dial in
		// flight from another caller. Wait for one to land (or fail,
		// which frees its slot).
		changed := p.changed
		p.mu.Unlock()
		closeAll(dead)
		if ctx == nil {
			ctx = context.Background()
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: waiting for a pooled connection: %w", offload.ErrTransport, ctx.Err())
		case <-changed:
		}
	}
}

func closeAll(conns []*poolConn) {
	for _, pc := range conns {
		pc.c.Close()
	}
}

// dial opens one new pooled connection (the caller holds a dialing slot)
// and returns it with inflight already 1.
func (p *Pool) dial(ctx context.Context) (*poolConn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dctx, cancel := context.WithTimeout(ctx, p.cfg.DialTimeout)
	var opts []offload.ClientOption
	if p.cfg.IOTimeout > 0 {
		opts = append(opts, offload.WithIOTimeout(p.cfg.IOTimeout))
	}
	c, err := offload.Dial(dctx, p.cfg.Network, p.cfg.Addr, p.cfg.Hello, opts...)
	cancel()
	p.mu.Lock()
	p.dialing--
	p.signalChanged()
	if err != nil {
		// A dial that died only because the CALLER gave up — deadline hit,
		// or a hedge loser canceled — says nothing about the server, so it
		// must not start a backoff window that poisons later requests.
		if ctx.Err() != nil {
			p.mu.Unlock()
			return nil, err
		}
		if errors.Is(err, offload.ErrTransport) {
			if p.backoff == 0 {
				p.backoff = backoffBase
			} else if p.backoff < p.cfg.MaxBackoff {
				p.backoff *= 2
				if p.backoff > p.cfg.MaxBackoff {
					p.backoff = p.cfg.MaxBackoff
				}
			}
			// Jitter the applied delay so a fleet of clients that all
			// lost this replica together does not redial it in lockstep.
			p.nextDial = time.Now().Add(jitterBackoff(p.backoff))
			p.lastDialErr = err
		}
		p.mu.Unlock()
		return nil, err
	}
	p.backoff = 0
	p.nextDial = time.Time{}
	p.lastDialErr = nil
	p.dials++
	if !p.haveHello {
		p.hello = c.ServerHello()
		p.haveHello = true
	}
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, ErrPoolClosed
	}
	pc := &poolConn{c: c, inflight: 1, lastUse: time.Now()}
	p.conns = append(p.conns, pc)
	cmPoolDials.With(p.cfg.Addr).Inc()
	p.syncGauges()
	p.mu.Unlock()
	return pc, nil
}

// release returns a connection after an operation, discarding it if its
// transport broke.
func (p *Pool) release(pc *poolConn, opErr error) {
	broken := pc.c.Err() != nil || (opErr != nil && errors.Is(opErr, offload.ErrTransport))
	p.mu.Lock()
	pc.inflight--
	pc.lastUse = time.Now()
	if broken {
		for i, cur := range p.conns {
			if cur == pc {
				p.conns = append(p.conns[:i], p.conns[i+1:]...)
				break
			}
		}
	}
	p.syncGauges()
	p.mu.Unlock()
	if broken {
		pc.c.Close()
	}
}

// dialBackoffLeft reports how much of the pool's dial-backoff window
// remains — zero when the pool may dial immediately. Failover uses it to
// size the wait before re-sweeping a fleet whose pools all fast-failed.
func (p *Pool) dialBackoffLeft() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if left := time.Until(p.nextDial); left > 0 {
		return left
	}
	return 0
}

// Op is one idempotent operation on a pooled connection, returning its
// result. It must use the context it is handed: a hedged loser's context
// is canceled. Every pool and cluster call runs an Op, and a hedged pair
// runs the same Op concurrently, so an Op keeps no state of its own beyond
// what it returns.
type Op[T any] func(context.Context, *offload.Client) (T, error)

// call runs op on one pooled connection of p and returns its result. A
// standalone pool retries a transport failure once on a different (or
// freshly dialed) connection — safe because every Op is idempotent; a
// cluster's pool makes one attempt and leaves retrying to the cluster's
// failover loop. Protocol errors are returned as-is, and a failed call
// returns T's zero value.
func call[T any](ctx context.Context, p *Pool, op Op[T]) (T, error) {
	var (
		zero    T
		lastErr error
	)
	for attempt := 0; attempt < p.attempts; attempt++ {
		if attempt > 0 {
			cmPoolRetries.With(p.cfg.Addr).Inc()
		}
		pc, err := p.acquire(ctx)
		if err != nil {
			if lastErr != nil {
				return zero, lastErr
			}
			return zero, err
		}
		v, err := op(ctx, pc.c)
		p.release(pc, err)
		if err == nil {
			return v, nil
		}
		if !errors.Is(err, offload.ErrTransport) {
			return zero, err
		}
		lastErr = err
	}
	return zero, lastErr
}

// The shared operations behind Pool's and Cluster's methods.

func serverHello(_ context.Context, c *offload.Client) (offload.ServerHello, error) {
	return c.ServerHello(), nil
}

func classify(q offload.Query) Op[offload.Result] {
	return func(ctx context.Context, c *offload.Client) (r offload.Result, err error) {
		r.Label, r.Scores, err = c.ClassifyContext(ctx, q)
		return r, err
	}
}

func classifyBatch(qs []offload.Query) Op[[]offload.Result] {
	return func(ctx context.Context, c *offload.Client) ([]offload.Result, error) {
		return c.ClassifyBatchScoresContext(ctx, qs)
	}
}

func listModels(_ context.Context, c *offload.Client) ([]offload.ModelListing, error) {
	return c.ListModels()
}

// Hello dials (at most) one connection and returns the server's accepted
// handshake — geometry, model identity and public encoder setup — for
// edges that auto-configure. Subsequent calls are free.
func (p *Pool) Hello(ctx context.Context) (offload.ServerHello, error) {
	p.mu.Lock()
	h, ok := p.hello, p.haveHello
	p.mu.Unlock()
	if ok {
		return h, nil
	}
	return call(ctx, p, serverHello)
}

// Classify classifies one prepared query through the pool. The context's
// deadline, if any, rides the frame as its budget (offload.BudgetNs) and
// bounds the wait.
func (p *Pool) Classify(ctx context.Context, q offload.Query) (int, []float64, error) {
	r, err := call(ctx, p, classify(q))
	return r.Label, r.Scores, err
}

// ClassifyBatchScores classifies a batch of prepared queries through one
// pooled connection (chunks pipelined).
func (p *Pool) ClassifyBatchScores(ctx context.Context, qs []offload.Query) ([]offload.Result, error) {
	return call(ctx, p, classifyBatch(qs))
}

// ClassifyBatch is ClassifyBatchScores returning labels only.
func (p *Pool) ClassifyBatch(ctx context.Context, qs []offload.Query) ([]int, error) {
	results, err := p.ClassifyBatchScores(ctx, qs)
	if err != nil {
		return nil, err
	}
	return offload.Labels(results), nil
}

// ListModels asks the pooled server for its registry listing.
func (p *Pool) ListModels(ctx context.Context) ([]offload.ModelListing, error) {
	return call(ctx, p, listModels)
}

// PoolStats is a snapshot of a pool's connection state.
type PoolStats struct {
	// Conns is the number of live pooled connections.
	Conns int
	// InFlight is the number of operations currently using a connection.
	InFlight int
	// Dials counts successful connection establishments over the pool's
	// lifetime — more than Conns means redials replaced broken or reaped
	// connections.
	Dials int
}

// Stats returns a snapshot of the pool's state.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{Conns: len(p.conns), Dials: p.dials}
	for _, pc := range p.conns {
		st.InFlight += pc.inflight
	}
	return st
}

// InFlight returns how many operations are currently outstanding — the
// cluster's least-in-flight balancing signal.
func (p *Pool) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pc := range p.conns {
		n += pc.inflight
	}
	return n
}

// resetBackoff clears the redial backoff — called when a health probe
// proves the server reachable again, so traffic redials immediately.
func (p *Pool) resetBackoff() {
	p.mu.Lock()
	p.backoff = 0
	p.nextDial = time.Time{}
	p.lastDialErr = nil
	p.mu.Unlock()
}

// upkeepLoop is the pool's one background goroutine. It ticks at the
// shorter of the ping interval and the reap interval (a quarter of
// IdleTimeout, at least 10ms), closes connections idle past IdleTimeout,
// then pings the idle survivors (see pingIdle). When the reap tick is the
// shorter one, a connection idle past PingInterval is pinged on each tick
// until it is reaped — at most four pings, since the tick is a quarter of
// IdleTimeout.
func (p *Pool) upkeepLoop() {
	defer close(p.upkeepDone)
	interval := p.cfg.PingInterval
	if p.cfg.IdleTimeout > 0 {
		reap := max(p.cfg.IdleTimeout/4, 10*time.Millisecond)
		if interval == 0 || reap < interval {
			interval = reap
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopUpkeep:
			return
		case now := <-ticker.C:
			if p.cfg.IdleTimeout > 0 {
				p.reap(now)
			}
			if p.cfg.PingInterval > 0 {
				p.pingIdle(now)
			}
		}
	}
}

// reap closes every connection idle since before now−IdleTimeout.
func (p *Pool) reap(now time.Time) {
	p.mu.Lock()
	live := p.conns[:0]
	var idle []*poolConn
	for _, pc := range p.conns {
		if pc.inflight == 0 && now.Sub(pc.lastUse) > p.cfg.IdleTimeout {
			idle = append(idle, pc)
			continue
		}
		live = append(live, pc)
	}
	p.conns = live
	p.syncGauges()
	p.mu.Unlock()
	closeAll(idle)
}

// Close closes every pooled connection and stops the upkeep goroutine.
// In-flight operations fail with transport errors.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.syncGauges()
	p.signalChanged()
	p.mu.Unlock()
	if p.stopUpkeep != nil {
		close(p.stopUpkeep)
		<-p.upkeepDone
	}
	closeAll(conns)
	return nil
}

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	// Network and Addrs locate the replicas ("tcp", one "host:port" each).
	Network string
	Addrs   []string
	// Hello is the per-connection handshake (edge geometry + model name),
	// shared by every replica pool and by health probes.
	Hello offload.Hello
	// Pool is the per-replica pool template; Network/Addr/Hello are
	// overridden per replica.
	Pool PoolConfig
	// ProbeInterval is how often unreachable replicas are re-probed (and
	// healthy ones lightly verified). Default 2s; negative disables
	// probing (ejected replicas then only recover via the all-unhealthy
	// fallback path). One probe's dial+handshake is bounded at 2s.
	ProbeInterval time.Duration
	// Hedge opts the cluster into hedged requests on the hedgeable paths
	// (Classify, and the shard coordinator's gathers through Hedged): a
	// backup attempt on a second replica after an adaptive delay, first
	// reply wins (see Hedged). Batch chunks, Hello and ListModels are
	// never hedged.
	Hedge bool
	// Logger receives structured health-transition events (replica
	// ejected / re-admitted, with address and reason). Nil discards them.
	Logger *slog.Logger
}

// replica is one cluster member: an address, its pool, and its health —
// whether it is admitted for traffic, plus the cooldown ladder that gates
// how eagerly probes may re-admit it (see recordFailure).
type replica struct {
	addr string
	pool *Pool

	mu        sync.Mutex
	healthy   bool
	ejectedAt time.Time
	cooldown  time.Duration // how long after ejectedAt a probe may not re-admit
	ejections int           // ejections since the ladder last reset
	streak    int           // consecutive successes
}

func (r *replica) isHealthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// Cluster load-balances idempotent operations over replica pools with
// health tracking and transparent failover. All methods are safe for
// concurrent use.
type Cluster struct {
	cfg      ClusterConfig
	log      *slog.Logger
	replicas []*replica

	// next rotates pick's starting replica, breaking in-flight ties.
	next atomic.Uint64

	// Adaptive hedge-delay state: a ring of recent per-attempt latencies
	// and the cached ~p90 the hedge timer reads (see resilience.go).
	latMu        sync.Mutex
	lats         [hedgeLatWindow]int64
	latIdx       int
	hedgeDelayNs atomic.Int64

	closeOnce sync.Once
	stopProbe chan struct{}
	probeDone chan struct{}
}

// NewCluster returns a cluster over the configured replica addresses. No
// connection is dialed until the first operation (use Hello to dial
// eagerly). Close it when done.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: no replica addresses")
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	cl := &Cluster{cfg: cfg, log: cfg.Logger}
	if cl.log == nil {
		cl.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, addr := range cfg.Addrs {
		pcfg := cfg.Pool
		pcfg.Network = cfg.Network
		pcfg.Addr = addr
		pcfg.Hello = cfg.Hello
		cl.replicas = append(cl.replicas, &replica{
			addr:    addr,
			pool:    newPool(pcfg, 1),
			healthy: true,
		})
		cmReplicaHealthy.With(addr).Set(1)
	}
	if cfg.ProbeInterval > 0 {
		cl.stopProbe = make(chan struct{})
		cl.probeDone = make(chan struct{})
		go cl.probeLoop()
	}
	return cl, nil
}

// pick selects the next replica to try among those not yet tried, or nil
// when every replica was tried. A healthy replica beats an ejected one —
// ejected replicas are picked only when nothing healthy is left, since a
// dead cluster heals faster through traffic than through probes alone —
// and among equals the fewest in-flight operations wins. The scan starts
// at a rotating index, so ties go to each replica in turn: an idle fleet
// shares sequential calls evenly, and chunks of a batch launched together
// spread before any of them registers load.
func (cl *Cluster) pick(tried map[*replica]bool) *replica {
	n := len(cl.replicas)
	start := int((cl.next.Add(1) - 1) % uint64(n))
	var (
		best        *replica
		bestHealthy bool
		bestLoad    int
	)
	for i := range n {
		r := cl.replicas[(start+i)%n]
		if tried[r] {
			continue
		}
		healthy := r.isHealthy()
		if best != nil && bestHealthy && !healthy {
			continue
		}
		load := r.pool.InFlight()
		if best == nil || healthy && !bestHealthy || load < bestLoad {
			best, bestHealthy, bestLoad = r, healthy, load
		}
	}
	return best
}

// do runs op with failover under a fresh per-call allowance (see
// failover).
func do[T any](ctx context.Context, cl *Cluster, op Op[T]) (T, error) {
	left := cl.callAllowance()
	return failover(ctx, cl, &left, nil, nil, op)
}

// failover is the one retry loop of a cluster call, behind do and Hedged:
// run op on replicas (prefer first, if set, then picks) until one answers, a
// typed protocol error arrives — a live server answered, and every replica
// would answer the same — the call's allowance runs dry, or ctx ends. An
// undeadlined call also stops after a sweep in which every replica was
// inside its dial backoff. A replica whose transport fails is ejected, and
// each such failure spends one unit of *left, a counter only a hedged pair
// shares, so one call makes at most 1 + callAllowance attempts. onPick,
// when non-nil, is told each replica just before its attempt — Hedged uses
// it to aim the backup attempt at a different replica than the primary is
// on. Failovers past the first pause with jitter (failoverPause) so a call
// sweeping a sick fleet does not hammer it in a tight loop.
func failover[T any](ctx context.Context, cl *Cluster, left *int64, prefer *replica, onPick func(*replica), op Op[T]) (T, error) {
	var zero T
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	attempt := 0
	for {
		tried := make(map[*replica]bool, len(cl.replicas))
		realFailure := false
		for len(tried) < len(cl.replicas) {
			r := prefer
			if r == nil || tried[r] {
				r = cl.pick(tried)
			}
			tried[r] = true
			attempt++
			if onPick != nil {
				onPick(r)
			}
			attemptStart := time.Now()
			v, err := call(ctx, r.pool, op)
			if err == nil {
				cl.recordSuccess(r, false)
				if cl.cfg.Hedge {
					cl.observeLatency(time.Since(attemptStart))
				}
				return v, nil
			}
			if !errors.Is(err, offload.ErrTransport) {
				return zero, err
			}
			if ctx.Err() != nil {
				// The caller gave up, the replica didn't fail: surface the
				// cancellation without ejecting anyone or burning retries on
				// a context that is already dead.
				return zero, fmt.Errorf("%w: %w", offload.ErrTransport, ctx.Err())
			}
			if errors.Is(err, errDialBackoff) {
				// The pool rejected without touching the network: the
				// replica already paid for the dial failure that opened its
				// backoff window. Re-punishing it here — and charging the
				// call's allowance for an attempt that never left the
				// process — would drain calls to exhaustion exactly when
				// replicas are sickest. The tried map still bounds the sweep.
				lastErr = err
				continue
			}
			realFailure = true
			cl.recordFailure(r, false, err)
			cmFailovers.Inc()
			lastErr = err
			if atomic.AddInt64(left, -1) < 0 {
				cmRetryBudgetExhausted.Inc()
				return zero, fmt.Errorf("%w: retry allowance exhausted after %d attempts, last: %v",
					ErrNoHealthyReplicas, attempt, lastErr)
			}
			if pause := failoverPause(attempt + 1); pause > 0 {
				t := time.NewTimer(pause)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return zero, fmt.Errorf("%w: %w", offload.ErrTransport, ctx.Err())
				}
			}
		}
		// The sweep covered every replica without a success. A caller that
		// is still willing to wait deserves another sweep rather than an
		// error with most of its deadline unspent: real failures already
		// drew down the allowance (which bounds the total), and an
		// all-backoff sweep cost nothing — waiting out the nearest window
		// is strictly better than failing a call that has time left.
		if ctx.Err() != nil {
			break
		}
		if realFailure {
			continue
		}
		// Every rejection this sweep was a free backoff fast-fail. Only a
		// deadline bounds how long we may keep waiting; without one, spin
		// forever on a dead fleet — so fail as before.
		if _, ok := ctx.Deadline(); !ok {
			break
		}
		wait := cl.minDialBackoffLeft() + time.Millisecond
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return zero, fmt.Errorf("%w: %w", offload.ErrTransport, ctx.Err())
		}
	}
	return zero, fmt.Errorf("%w: all %d replicas failed, last: %v", ErrNoHealthyReplicas, len(cl.replicas), lastErr)
}

// minDialBackoffLeft reports the shortest remaining dial-backoff window
// across the fleet — how long an all-backing-off sweep must wait before
// some pool will attempt a real dial again. Zero when no window is open.
func (cl *Cluster) minDialBackoffLeft() time.Duration {
	var min time.Duration
	for _, r := range cl.replicas {
		if left := r.pool.dialBackoffLeft(); left > 0 && (min == 0 || left < min) {
			min = left
		}
	}
	return min
}

// Hello returns the accepted handshake of the first replica that answers.
func (cl *Cluster) Hello(ctx context.Context) (offload.ServerHello, error) {
	return do(ctx, cl, serverHello)
}

// Classify classifies one prepared query on some healthy replica. With
// Hedge set, a straggling call is hedged to a second replica and the
// first reply wins.
func (cl *Cluster) Classify(ctx context.Context, q offload.Query) (int, []float64, error) {
	r, err := Hedged(ctx, cl, nil, classify(q))
	return r.Label, r.Scores, err
}

// ClassifyBatchScores classifies a batch by scattering contiguous chunks
// across the healthy replicas in parallel — a fleet answers a big batch at
// fleet bandwidth instead of pinning it to one pooled connection. Each
// chunk fails over independently (classification is idempotent and
// deterministic per model publication), so a replica dying mid-batch costs
// one chunk retry, not a whole-batch restart. Results come back in input
// order; the first error wins and fails the batch.
func (cl *Cluster) ClassifyBatchScores(ctx context.Context, qs []offload.Query) ([]offload.Result, error) {
	n := len(qs)
	if n == 0 {
		return nil, nil
	}
	ways := 0
	for _, r := range cl.replicas {
		if r.isHealthy() {
			ways++
		}
	}
	if ways < 1 {
		ways = 1 // all ejected: one chunk, let do() heal through traffic
	}
	chunk := (n + ways - 1) / ways
	if chunk >= n {
		// Degenerate scatter (one replica, or batch smaller than the
		// fleet ÷ 1): keep the simple single-flight path.
		return do(ctx, cl, classifyBatch(qs))
	}
	results := make([]offload.Result, n)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for start := 0; start < n; start += chunk {
		end := min(start+chunk, n)
		// pick's rotating start deals chunks launched together to
		// distinct replicas even before any of them registers load.
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			rs, err := do(ctx, cl, func(ctx context.Context, c *offload.Client) ([]offload.Result, error) {
				rs, err := c.ClassifyBatchScoresContext(ctx, qs[start:end])
				if err == nil && len(rs) != end-start {
					return nil, fmt.Errorf("%w: replica answered %d of %d chunk queries",
						offload.ErrTransport, len(rs), end-start)
				}
				return rs, err
			})
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			} else {
				copy(results[start:end], rs)
				cmScatterChunks.Inc()
			}
		}(start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// ClassifyBatch is ClassifyBatchScores returning labels only.
func (cl *Cluster) ClassifyBatch(ctx context.Context, qs []offload.Query) ([]int, error) {
	results, err := cl.ClassifyBatchScores(ctx, qs)
	if err != nil {
		return nil, err
	}
	return offload.Labels(results), nil
}

// ListModels returns the registry listing of the first healthy replica
// that answers.
func (cl *Cluster) ListModels(ctx context.Context) ([]offload.ModelListing, error) {
	return do(ctx, cl, listModels)
}

// probeLoop periodically probes every replica: ejected replicas are
// re-admitted when they answer the handshake again, and replicas that
// stopped answering are ejected before traffic finds out.
func (cl *Cluster) probeLoop() {
	defer close(cl.probeDone)
	ticker := time.NewTicker(cl.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-cl.stopProbe:
			return
		case <-ticker.C:
			var wg sync.WaitGroup
			for _, r := range cl.replicas {
				wg.Add(1)
				go func(r *replica) {
					defer wg.Done()
					cl.probe(r)
				}(r)
			}
			wg.Wait()
		}
	}
}

// probe checks one replica with a lightweight dial+handshake. A typed
// handshake rejection still proves the process is alive and answering, so
// only transport failures mark the replica down.
func (cl *Cluster) probe(r *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	hello := offload.Hello{Model: cl.cfg.Hello.Model}
	c, err := offload.Dial(ctx, cl.cfg.Network, r.addr, hello)
	if err == nil {
		c.Close()
	}
	if err != nil && errors.Is(err, offload.ErrTransport) {
		cl.recordFailure(r, true, err)
		return
	}
	// The cooldown ladder gates probe-driven re-admission: a replica that
	// keeps dying right after coming back waits longer each time before a
	// probe may re-admit it. Traffic successes are never gated — real work
	// answering (the all-ejected fallback path) re-admits immediately.
	if cl.recordSuccess(r, true) {
		r.pool.resetBackoff()
	}
}

// ReplicaStatus is one replica's health snapshot.
type ReplicaStatus struct {
	// Addr is the replica address.
	Addr string
	// Healthy reports whether the replica is currently admitted for
	// traffic.
	Healthy bool
	// Conns and InFlight describe the replica's pool.
	Conns    int
	InFlight int
}

// Replicas returns a snapshot of every replica's health and load.
func (cl *Cluster) Replicas() []ReplicaStatus {
	out := make([]ReplicaStatus, len(cl.replicas))
	for i, r := range cl.replicas {
		st := r.pool.Stats()
		out[i] = ReplicaStatus{
			Addr:     r.addr,
			Healthy:  r.isHealthy(),
			Conns:    st.Conns,
			InFlight: st.InFlight,
		}
	}
	return out
}

// Close stops the prober and closes every replica pool. It is idempotent
// and safe to call concurrently.
func (cl *Cluster) Close() error {
	cl.closeOnce.Do(func() {
		if cl.stopProbe != nil {
			close(cl.stopProbe)
			<-cl.probeDone
		}
		for _, r := range cl.replicas {
			r.pool.Close()
		}
	})
	return nil
}
