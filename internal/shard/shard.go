// Package shard implements the scatter–gather coordinator that makes a
// fleet of partial replicas answer like one whole model.
//
// A replica may serve a slice of a logical model — a dimension range of
// every class plane, a class range, or both (see registry.ShardInfo). The
// coordinator dials every address, reads each replica's shard descriptor
// from its ServerHello, groups replicas serving the same slice into a
// failover cluster, and verifies the groups tile the full model exactly.
// A prediction then scatters the matching slice of the packed query to
// every group, gathers exact integer partial dot products and per-class
// Σv², reduces them, and takes the argmax over whole-model scores.
//
// A query's slice is its bit-planes sent from the slice's first dimension
// (offload.Query.Slice), shifted as the frame is written: nothing copied.
//
// The reduction is bit-identical to whole-model serving: partial dots are
// int64 sums of symbol×(small integer) products, so summing them across
// dimension shards is exact and order-free; Σv² per class is an exact
// integer below 2⁵³ on every engine, so the float64 sum across shards is
// exact too, and math.Sqrt of an identical float64 is identical. A model
// whose classes are not integers is served in fixed point, and its slices
// are cut from the whole model's fixed-point form (hdc.Model.Slice), so
// every shard's partials are in the same units. Class sharding needs no
// cross-shard arithmetic at all — each class's score comes entirely from
// the one column of groups holding it — so the grid case composes from the
// same reduction.
//
// Each group is a cluster.Cluster, so a replica dying mid-gather is
// retried on that shard's surviving replicas only; the other shards'
// partials are never re-fetched. Servers announce graceful shutdown with
// a GoAway push, which the pools underneath translate into routing new
// work elsewhere before the TCP half-close lands.
package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"privehd/internal/cluster"
	"privehd/internal/intscore"
	"privehd/internal/offload"
	"privehd/internal/registry"
	"privehd/internal/trace"
	"privehd/internal/vecmath"
)

// ErrBadTiling reports a replica set whose shard descriptors do not tile
// the full model exactly (gaps, overlaps, or disagreeing geometry), or a
// replica whose partial-score answer does not match the descriptor it
// advertised. It is a configuration verdict, not a transport failure:
// retrying elsewhere cannot fix it.
var ErrBadTiling = errors.New("shard: replicas do not tile the full model")

// Config configures a Coordinator.
type Config struct {
	// Network and Addrs locate the replicas ("tcp", one "host:port" each).
	// Replicas serving the same slice become one failover group.
	Network string
	Addrs   []string
	// Model names the served model to bind to (empty for the default).
	Model string
	// Pool is the per-replica pool template (Network/Addr/Hello are
	// overridden per replica).
	Pool cluster.PoolConfig
	// ProbeInterval configures per-group health probing (cluster.
	// ClusterConfig semantics; probes use the cluster's default timeout).
	ProbeInterval time.Duration
	// Hedge opts every shard group into hedged partial-score gathers
	// (cluster.ClusterConfig.Hedge semantics): the gather is only as fast
	// as its slowest shard, so hedging stragglers inside each group is
	// where tail latency actually goes to die.
	Hedge bool
	// Logger receives structured health events. Nil discards them.
	Logger *slog.Logger
}

// group is one shard of the model: the slice descriptor and the failover
// cluster of replicas serving it.
type group struct {
	info registry.ShardInfo
	key  string // info.String(), the metric label
	cl   *cluster.Cluster
}

// Coordinator scatters packed queries across shard groups and gathers
// whole-model predictions. All methods are safe for concurrent use.
type Coordinator struct {
	cfg    Config
	hello  offload.ServerHello // synthesized whole-model view
	groups []*group
}

// New discovers the fleet's shard layout and returns a coordinator over
// it. Every address must answer a handshake for the configured model;
// replicas without a shard descriptor count as whole-model replicas (a
// one-group coordinator degenerates into a plain failover cluster that
// happens to score via partials). The context bounds discovery.
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("shard: no replica addresses")
	}
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	hellos := make([]offload.ServerHello, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		h, err := discover(ctx, cfg, addr)
		if err != nil {
			return nil, fmt.Errorf("shard: discovering %s: %w", addr, err)
		}
		hellos[i] = h
	}
	co := &Coordinator{cfg: cfg}
	byKey := make(map[string]*group)
	var addrsByKey = make(map[string][]string)
	for i, h := range hellos {
		info := descriptor(h)
		key := info.String()
		if g, ok := byKey[key]; ok {
			if g.info != info {
				// Same rendering can't disagree, but keep the invariant
				// explicit for future descriptor fields.
				return nil, fmt.Errorf("%w: %s advertises conflicting descriptor %v", ErrBadTiling, cfg.Addrs[i], info)
			}
		} else {
			byKey[key] = &group{info: info, key: key}
			co.groups = append(co.groups, byKey[key])
		}
		addrsByKey[key] = append(addrsByKey[key], cfg.Addrs[i])
	}
	if err := checkTiling(co.groups); err != nil {
		return nil, err
	}
	co.hello = wholeHello(hellos[0])
	for _, g := range co.groups {
		cl, err := cluster.NewCluster(cluster.ClusterConfig{
			Network:       cfg.Network,
			Addrs:         addrsByKey[g.key],
			Hello:         offload.Hello{Model: cfg.Model},
			Pool:          cfg.Pool,
			ProbeInterval: cfg.ProbeInterval,
			Hedge:         cfg.Hedge,
			Logger:        cfg.Logger,
		})
		if err != nil {
			co.Close()
			return nil, err
		}
		g.cl = cl
	}
	return co, nil
}

// discover dials one address, performs the handshake, and returns the
// accepted ServerHello. The connection is closed immediately — the real
// traffic goes through the per-group pools.
func discover(ctx context.Context, cfg Config, addr string) (offload.ServerHello, error) {
	c, err := offload.Dial(ctx, cfg.Network, addr, offload.Hello{Model: cfg.Model})
	if err != nil {
		return offload.ServerHello{}, err
	}
	h := c.ServerHello()
	c.Close()
	return h, nil
}

// descriptor normalizes a replica's advertised shard: replicas serving the
// whole model (pre-sharding deployments, or a server with a whole
// entry) get the full-cover descriptor so grouping and tiling treat every
// replica uniformly.
func descriptor(h offload.ServerHello) registry.ShardInfo {
	if h.Shard != nil {
		return *h.Shard
	}
	return registry.ShardInfo{
		DimLen:      h.Dim,
		ClassCount:  h.Classes,
		FullDim:     h.Dim,
		FullClasses: h.Classes,
	}
}

// checkTiling verifies the groups' descriptors partition the full model
// exactly: identical full geometry, pairwise disjoint rectangles, and
// total area equal to FullDim×FullClasses. Disjoint + in-bounds + matching
// area is a partition, so no per-cell scan is needed.
func checkTiling(groups []*group) error {
	full := groups[0].info
	area := 0
	for i, g := range groups {
		in := g.info
		if in.FullDim != full.FullDim || in.FullClasses != full.FullClasses {
			return fmt.Errorf("%w: replicas disagree on full geometry (%d×%d vs %d×%d)",
				ErrBadTiling, in.FullDim, in.FullClasses, full.FullDim, full.FullClasses)
		}
		if err := (&in).Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadTiling, err)
		}
		area += in.DimLen * in.ClassCount
		for _, o := range groups[:i] {
			if in.DimOffset < o.info.DimOffset+o.info.DimLen &&
				o.info.DimOffset < in.DimOffset+in.DimLen &&
				in.ClassOffset < o.info.ClassOffset+o.info.ClassCount &&
				o.info.ClassOffset < in.ClassOffset+in.ClassCount {
				return fmt.Errorf("%w: %s overlaps %s", ErrBadTiling, in.String(), o.info.String())
			}
		}
	}
	if area != full.FullDim*full.FullClasses {
		return fmt.Errorf("%w: shards cover %d of %d model cells",
			ErrBadTiling, area, full.FullDim*full.FullClasses)
	}
	return nil
}

// wholeHello synthesizes the whole-model handshake the coordinator
// presents upward: full geometry with the (shard-independent) encoder
// setup every replica shares, so edges auto-configure against a sharded
// fleet exactly as against one server.
func wholeHello(h offload.ServerHello) offload.ServerHello {
	if h.Shard != nil {
		h.Dim = h.Shard.FullDim
		h.Classes = h.Shard.FullClasses
		h.Shard = nil
	}
	return h
}

// Hello returns the synthesized whole-model handshake (full geometry plus
// the fleet's shared public encoder setup).
func (co *Coordinator) Hello() offload.ServerHello { return co.hello }

// Dim returns the full logical model dimensionality.
func (co *Coordinator) Dim() int { return co.hello.Dim }

// Classes returns the full logical model class count.
func (co *Coordinator) Classes() int { return co.hello.Classes }

// Groups returns the shard descriptors, one per failover group.
func (co *Coordinator) Groups() []registry.ShardInfo {
	out := make([]registry.ShardInfo, len(co.groups))
	for i, g := range co.groups {
		out[i] = g.info
	}
	return out
}

// gatherResult is one group's partial answer for a batch.
type gatherResult struct {
	info     registry.ShardInfo
	partials [][]int64 // [query][local class]
	normSq   []float64 // [local class]
}

// check verifies the answer has the shape the group's descriptor promised
// for a batch of n queries: one row per query and one entry per class of
// the slice, in every row and in normSq. reduce indexes by the descriptor,
// so a replica whose served entry no longer matches the descriptor it
// advertised at discovery (re-registered whole, or as another slice) must
// be refused here rather than panic the reduction.
func (r *gatherResult) check(n int) error {
	want := r.info.ClassCount
	if len(r.partials) != n {
		return fmt.Errorf("%w: replica answered %d of %d queries", ErrBadTiling, len(r.partials), n)
	}
	for q, row := range r.partials {
		if len(row) != want {
			return fmt.Errorf("%w: replica answered %d class scores for query %d, descriptor %s has %d classes",
				ErrBadTiling, len(row), q, r.info.String(), want)
		}
	}
	if len(r.normSq) != want {
		return fmt.Errorf("%w: replica answered %d class norms, descriptor %s has %d classes",
			ErrBadTiling, len(r.normSq), r.info.String(), want)
	}
	return nil
}

// scatter fans the packed batch across every shard group and gathers the
// partial answers. Each group's gather is one cluster.Hedged call whose op
// returns that group's gatherResult: the group retries internally across
// its own replicas (cluster failover) and, with Config.Hedge, races a
// straggler against a backup. A group that exhausts its replicas, or
// answers in a shape its descriptor does not allow, fails the whole
// gather. The span's gather stage records the slowest group's round trip.
func (co *Coordinator) scatter(ctx context.Context, packed []intscore.Planes, span *trace.Span) ([]gatherResult, error) {
	results := make([]gatherResult, len(co.groups))
	errs := make([]error, len(co.groups))
	var wg sync.WaitGroup
	for i, g := range co.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			sub := make([]offload.Query, len(packed))
			for q, p := range packed {
				sub[q] = offload.Query{Packed: p}.Slice(g.info.DimOffset, g.info.DimLen)
			}
			t0 := time.Now()
			// Hedged gather: each attempt returns its own gatherResult and
			// only the winner's comes back, so a primary and its hedge
			// never share state. The attempt counter is deliberately
			// shared — it counts every partial-score call this shard
			// issued, failover or hedge.
			var attempts atomic.Int64
			res, err := cluster.Hedged(ctx, g.cl, span, func(actx context.Context, c *offload.Client) (gatherResult, error) {
				attempts.Add(1)
				partials, normSq, err := c.PartialScoresContext(actx, sub)
				return gatherResult{info: g.info, partials: partials, normSq: normSq}, err
			})
			d := time.Since(t0)
			span.ObserveMax(trace.StageGather, d)
			if err == nil {
				results[i] = res
				err = res.check(len(packed))
			}
			if err != nil {
				smGatherErrors.With(g.key).Inc()
				errs[i] = fmt.Errorf("shard %s: %w", g.key, err)
			} else {
				smGathers.With(g.key).Inc()
				smGatherSeconds.With(g.key).Observe(d.Seconds())
			}
			if n := attempts.Load(); n > 1 {
				smPartialRetries.With(g.key).Add(uint64(n - 1))
			}
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// reduce folds the groups' partial answers into whole-model scores for
// query q of the gathered batch, writing into scores (FullClasses long).
// Exactness: int64 dot sums and sub-2⁵³ integer Σv² sums are associative,
// so the fold order across groups cannot change a single bit.
func reduce(results []gatherResult, q int, dots []int64, normSq, scores []float64) []float64 {
	for i := range dots {
		dots[i] = 0
		normSq[i] = 0
	}
	for _, r := range results {
		off := r.info.ClassOffset
		for l, d := range r.partials[q] {
			dots[off+l] += d
			normSq[off+l] += r.normSq[l]
		}
	}
	for l := range scores {
		n := normSq[l]
		if n == 0 {
			scores[l] = math.Inf(-1)
			continue
		}
		scores[l] = float64(dots[l]) / math.Sqrt(n)
	}
	return scores
}

// PredictPacked classifies one packed query against the sharded fleet,
// returning the whole-model label and per-class scores.
func (co *Coordinator) PredictPacked(ctx context.Context, packed intscore.Planes) (int, []float64, error) {
	labels, scores, err := co.PredictPackedBatch(ctx, []intscore.Planes{packed})
	if err != nil {
		return 0, nil, err
	}
	return labels[0], scores[0], nil
}

// PredictPackedBatch classifies a batch of packed queries against the
// sharded fleet. Every query must be FullDim long.
func (co *Coordinator) PredictPackedBatch(ctx context.Context, packed []intscore.Planes) ([]int, [][]float64, error) {
	if len(packed) == 0 {
		return nil, nil, nil
	}
	for i, p := range packed {
		if p.Dim != co.hello.Dim {
			return nil, nil, fmt.Errorf("shard: query %d has dim %d, model dim %d", i, p.Dim, co.hello.Dim)
		}
	}
	span := trace.Start()
	t0 := time.Now()
	results, err := co.scatter(ctx, packed, span)
	if err != nil {
		co.record(span, t0, len(packed), err)
		return nil, nil, err
	}
	classes := co.hello.Classes
	labels := make([]int, len(packed))
	scores := make([][]float64, len(packed))
	dots := make([]int64, classes)
	nsq := make([]float64, classes)
	for q := range packed {
		scores[q] = reduce(results, q, dots, nsq, make([]float64, classes))
		labels[q] = vecmath.ArgMax(scores[q])
	}
	co.record(span, t0, len(packed), nil)
	return labels, scores, nil
}

// record closes out a sampled coordinator span into the client-side
// flight recorder.
func (co *Coordinator) record(span *trace.Span, t0 time.Time, queries int, err error) {
	if span == nil {
		return
	}
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	trace.RecordClient(trace.Entry{
		TraceID: span.ID(),
		Time:    time.Now(),
		Side:    "client",
		Model:   co.hello.Model,
		Op:      "sharded-predict",
		Outcome: outcome,
		Queries: queries,
		TotalNs: int64(time.Since(t0)),
		Local:   span.Breakdown(),
	})
	span.Free()
}

// ListModels returns the registry listing of the first shard group that
// answers — model identity is fleet-wide shared setup, so any group's
// listing describes the fleet (geometry fields reflect that replica's
// slice).
func (co *Coordinator) ListModels(ctx context.Context) ([]offload.ModelListing, error) {
	return co.groups[0].cl.ListModels(ctx)
}

// Close releases every shard group's connections.
func (co *Coordinator) Close() error {
	var first error
	for _, g := range co.groups {
		if g.cl == nil {
			continue
		}
		if err := g.cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
