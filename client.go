package privehd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"privehd/internal/cluster"
	"privehd/internal/intscore"
	"privehd/internal/offload"
	"privehd/internal/shard"
)

// Client is the topology-independent inference surface Connect returns:
// one type whether the fleet behind it is a single connection, a pooled
// address, a replicated fleet, or a model split across shard replicas.
// Code written against Client chooses its serving topology with a Connect
// Target — a flag, not a code path. All methods are safe for concurrent
// use.
//
// Every client pairs its connections with a local Edge, so the §III-C
// privacy story is identical across topologies: inputs are encoded,
// quantized and masked on the device, and only obfuscated hypervectors
// cross the network.
type Client interface {
	// Predict obfuscates one input on the edge and classifies it remotely,
	// returning the predicted label and per-class scores.
	Predict(x []float64) (int, []float64, error)
	// PredictContext is Predict bounded by ctx: the remaining context
	// budget is stamped on every request frame (Request.BudgetNs), so
	// servers shed work that can no longer answer in time, failovers
	// stop when the call's allowance runs out, and cancellation aborts
	// client-side waits. A deadline exceeded on the way out or in a server shed
	// surfaces as ErrDeadlineExceeded. With hedging enabled (Target.Hedge)
	// a slow attempt races a backup replica, first reply wins.
	PredictContext(ctx context.Context, x []float64) (int, []float64, error)
	// PredictPrepared classifies an already-prepared query hypervector
	// (the output of Edge().Prepare). A quantized vector travels packed,
	// 2 bits per dimension; any other travels in full precision, which
	// a sharded client refuses with ErrPartialUnsupported.
	PredictPrepared(q []float64) (int, []float64, error)
	// PredictPreparedContext is PredictPrepared bounded by ctx (see
	// PredictContext).
	PredictPreparedContext(ctx context.Context, q []float64) (int, []float64, error)
	// PredictBatch obfuscates and classifies a batch of inputs.
	PredictBatch(X [][]float64) ([]int, error)
	// Edge returns the edge obfuscating the client's queries: the one
	// WithEdge supplied, or the one Connect auto-configured from the
	// server's advertised encoder setup.
	Edge() *Edge
	// Topology returns the resolved topology — never TopologyAuto.
	Topology() Topology
	// Shards returns the fleet's shard descriptors, one per failover
	// group, or nil unless the client is sharded.
	Shards() []ShardInfo
	// ListModels returns the serving registry's current listing: every
	// served model's name, version, geometry and public encoder setup,
	// with the default flagged. Cluster and sharded clients ask the first
	// replica that answers (a shard replica reports its slice geometry).
	ListModels() ([]ModelInfo, error)
	// Traces snapshots the process-wide client-side flight recorder —
	// the slowest and most recent errored traced requests this process
	// has sent (see SetTraceSampling).
	Traces() TraceSnapshot
	// Close releases the client's connections; in-flight calls fail with
	// ErrTransport.
	Close() error
}

// Topology selects how Connect arranges connections over the target
// addresses.
type Topology int

const (
	// TopologyAuto picks for you: one address is pooled; several
	// addresses dial the first reachable one and connect sharded if it
	// advertises a shard descriptor, as a cluster otherwise.
	TopologyAuto Topology = iota
	// TopologySingle is one pipelined connection to the first address.
	TopologySingle
	// TopologyPool is a bounded pool of reused connections to the first
	// address: dial on demand, idle reaping, redial with backoff, and one
	// transparent retry of a query that failed with ErrTransport.
	TopologyPool
	// TopologyCluster load-balances over the addresses as whole-model
	// replicas with health-tracked failover.
	TopologyCluster
	// TopologySharded treats the addresses as slices of one logical
	// model (dimension and/or class shards) and scatter–gathers every
	// prediction across them.
	TopologySharded
)

// topologyNames are the flag spellings, indexed by Topology.
var topologyNames = [...]string{"auto", "single", "pool", "cluster", "sharded"}

// String returns the topology's flag spelling ("auto", "single", "pool",
// "cluster", "sharded").
func (t Topology) String() string {
	if t < 0 || int(t) >= len(topologyNames) {
		return "unknown"
	}
	return topologyNames[t]
}

// ParseTopology parses a topology flag value as spelled by
// Topology.String; the empty string is TopologyAuto.
func ParseTopology(s string) (Topology, error) {
	if s == "" {
		return TopologyAuto, nil
	}
	for t, name := range topologyNames {
		if s == name {
			return Topology(t), nil
		}
	}
	return 0, fmt.Errorf("privehd: unknown topology %q (want auto|single|pool|cluster|sharded)", s)
}

// ErrNoHealthyReplicas reports that a cluster operation failed on every
// distinct replica it could try — the whole fleet is unreachable. It wraps
// ErrTransport (the condition is retryable once replicas return). Typed
// protocol errors (ErrUnknownModel, ErrBatchTooLarge, …) are never
// converted to this: they come from a live server and surface unchanged.
var ErrNoHealthyReplicas = cluster.ErrNoHealthyReplicas

// Target names what Connect should reach: where the servers are, which
// model to bind to, and how to arrange connections over them.
type Target struct {
	// Network is the dial network (default "tcp").
	Network string
	// Addrs are the server addresses. Single-address topologies use the
	// first.
	Addrs []string
	// Model selects the served model (empty for each server's default).
	// Unknown names are rejected with ErrUnknownModel.
	Model string
	// Topology arranges the connections (default TopologyAuto).
	Topology Topology
	// Hedge opts cluster and sharded topologies into hedged requests: a
	// slow attempt gets a backup sent to a second healthy replica, first
	// reply wins, the loser is canceled. The delay tracks roughly the p90
	// of recently observed latency, clamped to [1ms, 100ms], so only
	// genuine stragglers are hedged.
	// Single and pool topologies ignore it (nowhere else to hedge to).
	Hedge bool
}

// ConnectOption configures Connect.
type ConnectOption func(*connectConfig)

type connectConfig struct {
	edge     *Edge
	edgeOpts []Option
	pool     poolConfig
	probe    time.Duration
	logger   *slog.Logger
}

// WithEdge supplies the Edge whose obfuscated queries the client should
// carry. Without it Connect auto-configures one from the server's
// advertised encoder setup (layer defences on with WithEdgeOptions).
func WithEdge(e *Edge) ConnectOption {
	return func(c *connectConfig) { c.edge = e }
}

// WithEdgeOptions supplies pipeline options — typically the §III-C
// defences WithQueryMask and WithRawQueries — for the edge Connect
// auto-configures. Ignored when WithEdge provides one.
func WithEdgeOptions(opts ...Option) ConnectOption {
	return func(c *connectConfig) { c.edgeOpts = append(c.edgeOpts, opts...) }
}

// WithConnectPool applies per-address pool options (WithPoolSize,
// WithPoolIOTimeout, …) to every connection pool Connect builds. The
// single-connection topology honours the io-timeout option only.
func WithConnectPool(opts ...PoolOption) ConnectOption {
	return func(c *connectConfig) {
		for _, o := range opts {
			o(&c.pool)
		}
	}
}

// WithConnectProbeInterval sets how often cluster and sharded topologies
// health-probe replicas and re-admit ejected ones (default 2s); d ≤ 0
// disables probing — a dead replica then only recovers when all replicas
// were ejected and traffic falls back to retrying them.
func WithConnectProbeInterval(d time.Duration) ConnectOption {
	return func(c *connectConfig) {
		if d <= 0 {
			c.probe = -1
			return
		}
		c.probe = d
	}
}

// WithConnectLogger routes structured health-transition events of cluster
// and sharded topologies (replica ejected / re-admitted, with address and
// reason) to log. By default they are discarded.
func WithConnectLogger(log *slog.Logger) ConnectOption {
	return func(c *connectConfig) { c.logger = log }
}

// PoolOption configures the per-address connection pools Connect builds
// (see WithConnectPool).
type PoolOption func(*poolConfig)

type poolConfig struct {
	size      int
	ioTimeout time.Duration
}

// toInternal maps the public options to the internal pool configuration
// (0 = internal default, negative = disabled).
func (c poolConfig) toInternal() cluster.PoolConfig {
	return cluster.PoolConfig{Size: c.size, IOTimeout: c.ioTimeout}
}

// WithPoolSize bounds how many connections a pool keeps (default 4).
func WithPoolSize(n int) PoolOption {
	return func(c *poolConfig) {
		if n > 0 {
			c.size = n
		}
	}
}

// WithPoolIOTimeout bounds how long a connection waits for progress: each
// frame write must complete within d, and whenever requests are in flight
// a reply must arrive within d of the last one (idle connections never
// time out). On expiry every in-flight call fails with an error wrapping
// ErrIOTimeout. Every topology defaults to 30s so a hung server can never
// block a Predict forever; pass d ≤ 0 to disable the bound.
func WithPoolIOTimeout(d time.Duration) PoolOption {
	return func(c *poolConfig) {
		if d <= 0 {
			c.ioTimeout = -1
			return
		}
		c.ioTimeout = d
	}
}

// Connect is the one client constructor for every serving topology: it
// dials the target, performs (and validates) the protocol handshake —
// version, geometry and model mismatches surface as ErrVersionMismatch,
// ErrGeometryMismatch and ErrUnknownModel — auto-configures the
// obfuscating edge from the server's advertised encoder setup unless
// WithEdge provides one, and returns a Client over the target's topology.
// The context bounds dialing and handshaking.
func Connect(ctx context.Context, t Target, opts ...ConnectOption) (Client, error) {
	if len(t.Addrs) == 0 {
		return nil, errors.New("privehd: Connect: no addresses in target")
	}
	if t.Network == "" {
		t.Network = "tcp"
	}
	var cfg connectConfig
	for _, o := range opts {
		o(&cfg)
	}
	topo := t.Topology
	if topo == TopologyAuto {
		if len(t.Addrs) == 1 {
			topo = TopologyPool
		} else {
			var err error
			topo, err = sniffTopology(ctx, t)
			if err != nil {
				return nil, err
			}
		}
	}
	hello := offload.Hello{Model: t.Model}
	if cfg.edge != nil {
		hello.Dim = cfg.edge.Dim()
	}
	be, sh, err := dialBackend(ctx, topo, t, cfg, hello)
	if err != nil {
		return nil, err
	}
	edge := cfg.edge
	if edge == nil {
		if edge, err = edgeFromServerHello(sh, cfg.edgeOpts...); err != nil {
			be.Close()
			return nil, err
		}
	}
	// Servers check an explicit edge's geometry in the handshake; a
	// sharded fleet only learns the logical geometry by tiling.
	if edge.Dim() != sh.Dim {
		be.Close()
		return nil, fmt.Errorf("%w: edge dim %d, served model dim %d", ErrGeometryMismatch, edge.Dim(), sh.Dim)
	}
	if topo == TopologySharded && edge.cfg.rawQueries {
		be.Close()
		return nil, fmt.Errorf("%w: WithRawQueries edges send full-precision vectors, which cannot be partial-scored across shards",
			ErrPartialUnsupported)
	}
	return &client{edge: edge, be: be, topo: topo}, nil
}

// sniffTopology decides between cluster and sharded for a multi-address
// auto target: the first reachable address's handshake tells whether it
// serves a slice (shard descriptor in the ServerHello) or the whole
// model.
func sniffTopology(ctx context.Context, t Target) (Topology, error) {
	var lastErr error
	for _, addr := range t.Addrs {
		c, err := offload.Dial(ctx, t.Network, addr, offload.Hello{Model: t.Model})
		if err != nil {
			if errors.Is(err, ErrTransport) {
				lastErr = err
				continue
			}
			return 0, err
		}
		sharded := c.Shard() != nil && !c.Shard().Whole()
		c.Close()
		if sharded {
			return TopologySharded, nil
		}
		return TopologyCluster, nil
	}
	return 0, fmt.Errorf("privehd: Connect: no address reachable: %w", lastErr)
}

// backend carries prepared queries to the fleet for one topology, each in
// the wire form the edge built it in (offload.Query: packed symbols from a
// quantizing edge, a full-precision vector otherwise), passed through
// untouched. The internal cluster.Pool and cluster.Cluster implement it as
// they are; the single connection and the shard coordinator get thin
// adapters.
type backend interface {
	Classify(ctx context.Context, q offload.Query) (int, []float64, error)
	ClassifyBatch(ctx context.Context, qs []offload.Query) ([]int, error)
	ListModels(ctx context.Context) ([]offload.ModelListing, error)
	Close() error
}

// dialBackend connects the topology's backend and returns it with the
// ServerHello the edge is configured from.
func dialBackend(ctx context.Context, topo Topology, t Target, cfg connectConfig, hello offload.Hello) (backend, offload.ServerHello, error) {
	switch topo {
	case TopologySingle:
		// Apply the pool default IO timeout here too, so every topology
		// bounds reply progress unless WithPoolIOTimeout(d ≤ 0) disables
		// it (offload ignores a negative timeout).
		iot := cfg.pool.ioTimeout
		if iot == 0 {
			iot = cluster.DefaultIOTimeout
		}
		c, err := offload.Dial(ctx, t.Network, t.Addrs[0], hello, offload.WithIOTimeout(iot))
		if err != nil {
			return nil, offload.ServerHello{}, err
		}
		return singleBackend{c}, c.ServerHello(), nil
	case TopologyPool:
		pcfg := cfg.pool.toInternal()
		pcfg.Network, pcfg.Addr, pcfg.Hello = t.Network, t.Addrs[0], hello
		return helloed(ctx, cluster.NewPool(pcfg))
	case TopologyCluster:
		cl, err := cluster.NewCluster(cluster.ClusterConfig{
			Network:       t.Network,
			Addrs:         t.Addrs,
			Hello:         hello,
			Pool:          cfg.pool.toInternal(),
			ProbeInterval: cfg.probe,
			Hedge:         t.Hedge,
			Logger:        cfg.logger,
		})
		if err != nil {
			return nil, offload.ServerHello{}, fmt.Errorf("privehd: %w", err)
		}
		return helloed(ctx, cl)
	case TopologySharded:
		co, err := shard.New(ctx, shard.Config{
			Network:       t.Network,
			Addrs:         t.Addrs,
			Model:         t.Model,
			Pool:          cfg.pool.toInternal(),
			ProbeInterval: cfg.probe,
			Hedge:         t.Hedge,
			Logger:        cfg.logger,
		})
		if err != nil {
			return nil, offload.ServerHello{}, err
		}
		return shardBackend{co}, co.Hello(), nil
	}
	return nil, offload.ServerHello{}, fmt.Errorf("privehd: Connect: unknown topology %d", int(topo))
}

// helloed validates a pool or cluster's first handshake eagerly.
func helloed(ctx context.Context, b interface {
	backend
	Hello(context.Context) (offload.ServerHello, error)
}) (backend, offload.ServerHello, error) {
	sh, err := b.Hello(ctx)
	if err != nil {
		b.Close()
		return nil, offload.ServerHello{}, err
	}
	return b, sh, nil
}

// singleBackend is one pipelined protocol connection.
type singleBackend struct{ c *offload.Client }

func (b singleBackend) Classify(ctx context.Context, q offload.Query) (int, []float64, error) {
	return b.c.ClassifyContext(ctx, q)
}

func (b singleBackend) ClassifyBatch(ctx context.Context, qs []offload.Query) ([]int, error) {
	results, err := b.c.ClassifyBatchScoresContext(ctx, qs)
	return offload.Labels(results), err
}

func (b singleBackend) ListModels(context.Context) ([]offload.ModelListing, error) {
	return b.c.ListModels()
}

func (b singleBackend) Close() error { return b.c.Close() }

// client is the one Client implementation: it runs the edge step, then
// hands the prepared queries to its topology's backend. On a quantizing
// edge the packed query is the only form a prediction ever takes, from the
// encoder to the server's integer scoring kernel.
type client struct {
	edge *Edge
	be   backend
	topo Topology
}

func (c *client) Predict(x []float64) (int, []float64, error) {
	return c.PredictContext(context.Background(), x)
}

func (c *client) PredictContext(ctx context.Context, x []float64) (int, []float64, error) {
	q, err := c.edge.query(x)
	if err != nil {
		return 0, nil, err
	}
	return c.be.Classify(ctx, q)
}

func (c *client) PredictPrepared(q []float64) (int, []float64, error) {
	return c.PredictPreparedContext(context.Background(), q)
}

func (c *client) PredictPreparedContext(ctx context.Context, q []float64) (int, []float64, error) {
	if len(q) != c.edge.Dim() {
		return 0, nil, fmt.Errorf("privehd: prepared query has dim %d, edge dim %d", len(q), c.edge.Dim())
	}
	return c.be.Classify(ctx, preparedQuery(q))
}

// preparedQuery is the one place a caller's float query is packed: a
// vector of protocol symbols (the output of a quantizing Edge.Prepare)
// travels as its two bit-planes, split from one int8 per dimension,
// anything else in full precision.
func preparedQuery(v []float64) offload.Query {
	if p, ok := offload.PackQuery(v); ok {
		return offload.Query{Packed: intscore.Split(p)}
	}
	return offload.Query{Vector: v}
}

func (c *client) PredictBatch(X [][]float64) ([]int, error) {
	qs, err := c.edge.queries(X)
	if err != nil {
		return nil, err
	}
	return c.be.ClassifyBatch(context.Background(), qs)
}

func (c *client) Edge() *Edge { return c.edge }

func (c *client) Topology() Topology { return c.topo }

func (c *client) Shards() []ShardInfo {
	if s, ok := c.be.(shardBackend); ok {
		return s.co.Groups()
	}
	return nil
}

func (c *client) ListModels() ([]ModelInfo, error) {
	listings, err := c.be.ListModels(context.Background())
	if err != nil {
		return nil, err
	}
	return modelInfosFromListings(listings), nil
}

func (c *client) Traces() TraceSnapshot { return ClientTraces() }

func (c *client) Close() error { return c.be.Close() }
