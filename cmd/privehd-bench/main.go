// Command privehd-bench is a closed/open-loop load generator for a
// Prive-HD serving fleet — the serving-side counterpart of the repo's
// microbenchmark gate. It drives real traffic through the same client
// path production edges use (privehd.Connect + PredictPrepared) and
// reports sustained queries/s with p50/p95/p99 latency. The serving
// topology is a flag, not a code path: -topology auto|single|pool|
// cluster|sharded picks the Client arrangement over the same addresses.
//
// Two ways to point it at a fleet:
//
//   - -addrs host:port,host:port — load an already-running deployment.
//   - -selfserve N — train a small synthetic model, serve it from N
//     in-process replicas plus a /metrics listener, and benchmark that.
//     This is the CI smoke mode: no external processes, fully hermetic.
//     -shard-grid DxC splits the selfserve model into D dimension × C
//     class shards, each on its own listener, exercising the sharded
//     scatter–gather path end to end in one process.
//
// Two load modes:
//
//   - closed (default): -concurrency workers each issue the next query as
//     soon as the previous answer lands. Measures peak sustainable
//     throughput under a fixed multiprogramming level.
//   - open: queries are dispatched on a fixed schedule of -rate arrivals
//     per second regardless of how fast answers come back, and latency is
//     measured from the *scheduled* send time — so queueing delay caused
//     by a slow server is charged to the server, not silently absorbed by
//     the client (no coordinated omission).
//
// With -check the tool scrapes /metrics immediately before and after the
// measured window and asserts the server-side
// privehd_server_queries_total counter moved by exactly the number of
// queries the client tallied — closing the loop between the observability
// surface and ground truth. -check needs a scrape endpoint that covers
// every replica (selfserve mode wires one up automatically; for remote
// fleets pass -scrape and make sure all replicas share the process behind
// it).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"privehd"
	"privehd/internal/chaos"
)

type config struct {
	addrs       []string // remote fleet; empty means selfserve
	selfserve   int      // number of in-process replicas
	dataset     string   // selfserve training workload
	dim         int      // selfserve hypervector dimensionality
	model       string   // model name to bind to
	topology    privehd.Topology
	dimShards   int     // selfserve shard grid: dimension slices
	classShards int     // selfserve shard grid: class slices
	mode        string  // "closed" or "open"
	concurrency int     // closed: workers; open: max outstanding
	rate        float64 // open mode arrivals per second
	duration    time.Duration
	warmup      time.Duration
	queries     int     // size of the prepared-query pool
	scrape      string  // metrics URL for -check ("" = none/auto)
	traceSample float64 // end-to-end trace sampling rate
	check       bool
	jsonOut     bool
	hedge       bool          // hedge slow requests to a second replica
	deadline    time.Duration // per-request deadline (0 = none)
	chaosSpec   string        // raw -chaos value, "" = off
	chaosCfg    chaos.Config  // parsed fault mix for selfserve listeners
}

// summary is the benchmark report. QPS counts successful queries over the
// measured window; percentiles are over per-query latency (closed mode:
// call time; open mode: time since scheduled arrival).
type summary struct {
	Mode        string  `json:"mode"`
	Topology    string  `json:"topology"`
	Replicas    int     `json:"replicas"`
	Concurrency int     `json:"concurrency"`
	RateTarget  float64 `json:"rate_target,omitempty"`
	Seconds     float64 `json:"seconds"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	QPS         float64 `json:"qps"`
	P50ms       float64 `json:"p50_ms"`
	P95ms       float64 `json:"p95_ms"`
	P99ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`

	// MetricsChecked / ServerQueriesDelta report the -check cross-audit:
	// the server-side counter movement over the measured window, which
	// must equal Requests × ShardGroups (each shard group partial-scores
	// every logical query; 1 group for unsharded topologies).
	MetricsChecked     bool   `json:"metrics_checked"`
	ServerQueriesDelta uint64 `json:"server_queries_delta,omitempty"`

	// Hedges is the movement of privehd_cluster_hedges_total (all
	// outcomes) over the measured window; present whenever -hedge runs
	// with a metrics endpoint. The CI chaos soak asserts it is > 0 — the
	// faults must actually provoke hedging, not just be survived.
	Hedges uint64 `json:"hedges"`

	// ErrorKinds buckets the errors: deadline (the request ran out of
	// time, typed), transport (the whole fleet failed it), other.
	ErrorKinds map[string]int `json:"error_kinds,omitempty"`

	// ShardGroups is how many shard groups the client scatters across
	// (sharded topology only). ShardGathers is the per-shard movement of
	// privehd_shard_gathers_total over the measured window, keyed by
	// shard descriptor — with -check, each must equal Requests.
	ShardGroups  int               `json:"shard_groups,omitempty"`
	ShardGathers map[string]uint64 `json:"shard_gathers,omitempty"`

	// Trace reports where traced requests spent their latency; present
	// only with -trace-sample > 0.
	Trace *traceReport `json:"trace,omitempty"`
}

// stageStats are latency percentiles for one stage, in milliseconds.
type stageStats struct {
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
}

// traceReport summarizes the traced requests collected during the
// measured window: per-stage percentiles from the server's wire-reported
// stage timing plus the client's own measurements, and the trace IDs of
// the slowest requests for chasing through the server's flight recorder
// (GET /v1/debug/requests) and metrics exemplars.
type traceReport struct {
	// Sampled is how many traced requests completed inside the window.
	Sampled int `json:"sampled"`
	// Stages maps stage name to latency percentiles: total (client round
	// trip), client_queue, network, server_queue, server_score,
	// server_total.
	Stages map[string]stageStats `json:"stages"`
	// SlowestTraces lists the trace IDs of the slowest requests (up to 5),
	// slowest first.
	SlowestTraces []string `json:"slowest_traces"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "privehd-bench:", err)
		os.Exit(2)
	}
	sum, err := run(context.Background(), cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privehd-bench:", err)
		os.Exit(1)
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
	} else {
		printSummary(os.Stdout, sum)
	}
}

func parseFlags(argv []string) (config, error) {
	var (
		fs   = flag.NewFlagSet("privehd-bench", flag.ContinueOnError)
		cfg  config
		list string
		topo string
		grid string
	)
	fs.StringVar(&list, "addrs", "", "comma-separated replica addresses of a running fleet")
	fs.StringVar(&topo, "topology", "auto", "client arrangement over the addresses: auto, single, pool, cluster or sharded")
	fs.IntVar(&cfg.selfserve, "selfserve", 0, "serve N in-process replicas of a synthetic model instead of dialing -addrs")
	fs.StringVar(&grid, "shard-grid", "", "selfserve only: split the model into a DxC grid of dimension × class shards (e.g. 2x2), one listener each; implies a sharded client")
	fs.StringVar(&cfg.dataset, "dataset", "isolet-s", "selfserve training workload (isolet-s, face-s, mnist-s)")
	fs.IntVar(&cfg.dim, "dim", 2048, "selfserve hypervector dimensionality")
	fs.StringVar(&cfg.model, "model", "", "model name to bind to (selfserve default: bench)")
	fs.StringVar(&cfg.mode, "mode", "closed", "load mode: closed (fixed workers) or open (fixed arrival rate)")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "closed: worker count; open: max outstanding queries")
	fs.Float64Var(&cfg.rate, "rate", 2000, "open mode target arrivals per second")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "measured window")
	fs.DurationVar(&cfg.warmup, "warmup", time.Second, "warmup (closed-loop, excluded from the report)")
	fs.IntVar(&cfg.queries, "queries", 64, "prepared-query pool size")
	fs.StringVar(&cfg.scrape, "scrape", "", "metrics URL for -check (selfserve sets this automatically)")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0, "fraction of requests to trace end to end, 0..1; adds a per-stage latency breakdown and the slowest trace IDs to the report")
	fs.BoolVar(&cfg.hedge, "hedge", false, "hedge slow requests to a second healthy replica (cluster and sharded topologies)")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "per-request deadline stamped on every frame so servers shed late work (0 = none)")
	fs.StringVar(&cfg.chaosSpec, "chaos", "", "selfserve only: fault-injection spec for replica listeners, e.g. seed=7,latency=2ms,latencyprob=0.3,stallprob=0.05,cut=0.03,refuse=0.03")
	fs.BoolVar(&cfg.check, "check", false, "scrape /metrics around the run and assert server counters match the client tally")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the summary as JSON on stdout")
	if err := fs.Parse(argv); err != nil {
		return cfg, err
	}
	if list != "" {
		cfg.addrs = strings.Split(list, ",")
	}
	var err error
	if cfg.topology, err = privehd.ParseTopology(topo); err != nil {
		return cfg, err
	}
	if grid != "" {
		if cfg.selfserve <= 0 {
			return cfg, errors.New("-shard-grid needs -selfserve (remote fleets already define their own shards)")
		}
		if _, err := fmt.Sscanf(grid, "%dx%d", &cfg.dimShards, &cfg.classShards); err != nil ||
			cfg.dimShards < 1 || cfg.classShards < 1 {
			return cfg, fmt.Errorf("bad -shard-grid %q (want DxC, e.g. 2x2)", grid)
		}
	} else {
		cfg.dimShards, cfg.classShards = 1, 1
	}
	if len(cfg.addrs) == 0 && cfg.selfserve <= 0 {
		return cfg, errors.New("need -addrs or -selfserve N")
	}
	if len(cfg.addrs) > 0 && cfg.selfserve > 0 {
		return cfg, errors.New("-addrs and -selfserve are mutually exclusive")
	}
	if cfg.mode != "closed" && cfg.mode != "open" {
		return cfg, fmt.Errorf("unknown -mode %q", cfg.mode)
	}
	if cfg.concurrency <= 0 || cfg.queries <= 0 || cfg.duration <= 0 {
		return cfg, errors.New("-concurrency, -queries and -duration must be positive")
	}
	if cfg.mode == "open" && cfg.rate <= 0 {
		return cfg, errors.New("open mode needs -rate > 0")
	}
	if cfg.traceSample < 0 || cfg.traceSample > 1 {
		return cfg, errors.New("-trace-sample must be in 0..1")
	}
	if cfg.model == "" && cfg.selfserve > 0 {
		cfg.model = "bench"
	}
	if cfg.chaosSpec != "" {
		if cfg.selfserve <= 0 {
			return cfg, errors.New("-chaos needs -selfserve (faults are injected into the in-process listeners)")
		}
		if cfg.chaosCfg, err = chaos.ParseSpec(cfg.chaosSpec); err != nil {
			return cfg, err
		}
	}
	if cfg.deadline < 0 {
		return cfg, errors.New("-deadline must be ≥ 0")
	}
	return cfg, nil
}

// run executes one benchmark: stand up the fleet (selfserve) or dial it,
// warm up, measure, and optionally cross-audit against /metrics. Progress
// notes go to errw; the returned summary is the result.
func run(ctx context.Context, cfg config, errw io.Writer) (*summary, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	addrs := cfg.addrs
	scrape := cfg.scrape
	var inputs [][]float64
	if cfg.selfserve > 0 {
		fleet, err := startSelfServe(ctx, cfg, errw)
		if err != nil {
			return nil, err
		}
		defer fleet.shutdown()
		addrs, inputs = fleet.addrs, fleet.inputs
		if scrape == "" {
			scrape = fleet.metricsURL
		}
	}
	if cfg.check && scrape == "" {
		return nil, errors.New("-check needs a metrics endpoint: pass -scrape (or use -selfserve)")
	}

	dialCtx, dialCancel := context.WithTimeout(ctx, 10*time.Second)
	client, err := privehd.Connect(dialCtx, privehd.Target{
		Addrs:    addrs,
		Model:    cfg.model,
		Topology: cfg.topology,
		Hedge:    cfg.hedge,
	})
	dialCancel()
	if err != nil {
		return nil, fmt.Errorf("connect fleet: %w", err)
	}
	defer client.Close()
	shardGroups := max(len(client.Shards()), 1)
	topoName := client.Topology().String()

	pool, err := queryPool(client, cfg.queries, inputs)
	if err != nil {
		return nil, err
	}

	var collector *traceCollector
	if cfg.traceSample > 0 {
		collector = &traceCollector{}
		privehd.SetTraceSampling(cfg.traceSample)
		privehd.OnTrace(collector.observe)
		defer func() {
			privehd.OnTrace(nil)
			privehd.SetTraceSampling(0)
		}()
	}

	if cfg.warmup > 0 {
		fmt.Fprintf(errw, "warming up %v (%d workers)\n", cfg.warmup, cfg.concurrency)
		closedLoop(ctx, client, pool, cfg.concurrency, cfg.warmup, cfg.deadline)
	}

	var hedgesBefore uint64
	if cfg.hedge && scrape != "" {
		if hedgesBefore, err = scrapeHedges(scrape); err != nil {
			return nil, fmt.Errorf("pre-run hedge scrape: %w", err)
		}
	}
	var before uint64
	var gathersBefore map[string]uint64
	if cfg.check {
		if before, err = scrapeQueries(scrape, cfg.model); err != nil {
			return nil, fmt.Errorf("pre-run scrape: %w", err)
		}
		if shardGroups > 1 {
			if gathersBefore, err = scrapeShardGathers(scrape); err != nil {
				return nil, fmt.Errorf("pre-run shard scrape: %w", err)
			}
		}
	}

	fmt.Fprintf(errw, "measuring %v in %s mode\n", cfg.duration, cfg.mode)
	if collector != nil {
		collector.arm()
	}
	var res runResult
	start := time.Now()
	if cfg.mode == "open" {
		res = openLoop(ctx, client, pool, cfg.rate, cfg.concurrency, cfg.duration, cfg.deadline)
	} else {
		res = closedLoop(ctx, client, pool, cfg.concurrency, cfg.duration, cfg.deadline)
	}
	elapsed := time.Since(start)
	var traced []privehd.TraceEntry
	if collector != nil {
		traced = collector.disarm()
	}

	sum := &summary{
		Mode:        cfg.mode,
		Topology:    topoName,
		Replicas:    len(addrs),
		Concurrency: cfg.concurrency,
		Seconds:     elapsed.Seconds(),
		Requests:    res.ok,
		Errors:      res.errs,
		ErrorKinds:  res.kinds,
		QPS:         float64(res.ok) / elapsed.Seconds(),
	}
	if shardGroups > 1 {
		sum.ShardGroups = shardGroups
	}
	if cfg.mode == "open" {
		sum.RateTarget = cfg.rate
	}
	sum.P50ms, sum.P95ms, sum.P99ms, sum.MaxMs = percentiles(res.lats)

	if cfg.hedge && scrape != "" {
		hedgesAfter, err := scrapeHedges(scrape)
		if err != nil {
			return nil, fmt.Errorf("post-run hedge scrape: %w", err)
		}
		sum.Hedges = hedgesAfter - hedgesBefore
	}
	if cfg.check {
		after, err := scrapeQueries(scrape, cfg.model)
		if err != nil {
			return nil, fmt.Errorf("post-run scrape: %w", err)
		}
		sum.MetricsChecked = true
		sum.ServerQueriesDelta = after - before
		// A sharded client partial-scores every logical query on every
		// shard group, so the fleet-wide server counter moves G× the
		// client tally. A hedged client may additionally land a backup
		// copy of a query whose primary it then discards — each hedge
		// launched can add at most one server-side query per group — so
		// under hedging the audit is a band, not an equality.
		want := uint64(res.ok) * uint64(shardGroups)
		slack := sum.Hedges * uint64(shardGroups)
		if sum.ServerQueriesDelta < want || sum.ServerQueriesDelta > want+slack {
			return nil, fmt.Errorf("metrics check failed: server counted %d queries, client tallied %d × %d shard groups = %d (+ up to %d hedged)",
				sum.ServerQueriesDelta, res.ok, shardGroups, want, slack)
		}
		if slack > 0 {
			fmt.Fprintf(errw, "metrics check ok: server counted %d queries (client %d × %d shard groups, %d extra from %d hedges)\n",
				sum.ServerQueriesDelta, res.ok, shardGroups, sum.ServerQueriesDelta-want, sum.Hedges)
		} else {
			fmt.Fprintf(errw, "metrics check ok: server counted %d queries (= %d requests × %d shard groups)\n",
				want, res.ok, shardGroups)
		}
		if shardGroups > 1 {
			gathersAfter, err := scrapeShardGathers(scrape)
			if err != nil {
				return nil, fmt.Errorf("post-run shard scrape: %w", err)
			}
			sum.ShardGathers = make(map[string]uint64, len(gathersAfter))
			for shard, v := range gathersAfter {
				sum.ShardGathers[shard] = v - gathersBefore[shard]
			}
			if len(sum.ShardGathers) != shardGroups {
				return nil, fmt.Errorf("shard gather check failed: %d shards on /metrics, client scatters across %d",
					len(sum.ShardGathers), shardGroups)
			}
			for shard, delta := range sum.ShardGathers {
				if res.errs == 0 && delta != uint64(res.ok) {
					return nil, fmt.Errorf("shard gather check failed: shard %q gathered %d of %d requests",
						shard, delta, res.ok)
				}
			}
			fmt.Fprintf(errw, "shard gather check ok: %d shards each gathered %d requests\n", shardGroups, res.ok)
		}
	}
	if res.ok == 0 {
		return nil, fmt.Errorf("no query succeeded (%d errors); fleet unhealthy?", res.errs)
	}
	if collector != nil {
		report, err := buildTraceReport(traced)
		if err != nil {
			return nil, err
		}
		sum.Trace = report
	}
	return sum, nil
}

// traceCollector gathers completed client-side trace entries while armed,
// so warmup traffic never pollutes the measured window's report.
type traceCollector struct {
	mu      sync.Mutex
	armed   bool
	entries []privehd.TraceEntry
}

func (tc *traceCollector) observe(e privehd.TraceEntry) {
	tc.mu.Lock()
	if tc.armed {
		tc.entries = append(tc.entries, e)
	}
	tc.mu.Unlock()
}

func (tc *traceCollector) arm() {
	tc.mu.Lock()
	tc.armed = true
	tc.entries = tc.entries[:0]
	tc.mu.Unlock()
}

func (tc *traceCollector) disarm() []privehd.TraceEntry {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.armed = false
	return tc.entries
}

// buildTraceReport turns the collected trace entries into per-stage
// percentiles and the slowest trace IDs, validating the invariants the
// wire timing promises: every successful traced reply carries a server
// stage breakdown, disjoint server stages sum to at most the server's
// total residency (single-query frames), and the server's residency fits
// inside the client's round trip.
func buildTraceReport(entries []privehd.TraceEntry) (*traceReport, error) {
	var ok []privehd.TraceEntry
	for _, e := range entries {
		if e.Outcome == "ok" || e.Outcome == "" {
			ok = append(ok, e)
		}
	}
	if len(ok) == 0 {
		return nil, errors.New("tracing enabled but no traced request completed in the measured window")
	}
	stages := map[string][]int64{}
	for _, e := range ok {
		if e.ServerTotalNs <= 0 {
			return nil, fmt.Errorf("traced reply %016x carries no server stage breakdown (old server?)", e.TraceID)
		}
		if e.Queries <= 1 && e.Server.QueueNs+e.Server.ScoreNs > e.ServerTotalNs {
			return nil, fmt.Errorf("trace %016x: server stages sum to %dns, above the server total %dns",
				e.TraceID, e.Server.QueueNs+e.Server.ScoreNs, e.ServerTotalNs)
		}
		if e.ServerTotalNs > e.TotalNs {
			return nil, fmt.Errorf("trace %016x: server residency %dns exceeds client round trip %dns",
				e.TraceID, e.ServerTotalNs, e.TotalNs)
		}
		stages["total"] = append(stages["total"], e.TotalNs)
		stages["client_queue"] = append(stages["client_queue"], e.Local.QueueNs)
		stages["network"] = append(stages["network"], e.Local.NetworkNs)
		stages["server_queue"] = append(stages["server_queue"], e.Server.QueueNs)
		stages["server_score"] = append(stages["server_score"], e.Server.ScoreNs)
		stages["server_total"] = append(stages["server_total"], e.ServerTotalNs)
	}
	rep := &traceReport{Sampled: len(ok), Stages: make(map[string]stageStats, len(stages))}
	for name, ns := range stages {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		at := func(q float64) float64 {
			return float64(ns[int(q*float64(len(ns)-1))]) / float64(time.Millisecond)
		}
		rep.Stages[name] = stageStats{P50ms: at(0.50), P95ms: at(0.95)}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].TotalNs > ok[j].TotalNs })
	for i := 0; i < len(ok) && i < 5; i++ {
		rep.SlowestTraces = append(rep.SlowestTraces, fmt.Sprintf("%016x", ok[i].TraceID))
	}
	return rep, nil
}

// queryPool prepares a fixed pool of obfuscated query hypervectors the
// load loops cycle through, so the measured window exercises the serving
// path (wire + scoring) rather than client-side encoding. inputs supplies
// raw feature vectors; when nil (remote fleets), deterministic synthetic
// inputs matching the edge's advertised feature count are used.
func queryPool(cl privehd.Client, n int, inputs [][]float64) ([][]float64, error) {
	edge := cl.Edge()
	if len(inputs) == 0 {
		rng := rand.New(rand.NewSource(1))
		inputs = make([][]float64, n)
		for i := range inputs {
			x := make([]float64, edge.Features())
			for j := range x {
				x[j] = rng.Float64()
			}
			inputs[i] = x
		}
	}
	pool := make([][]float64, 0, n)
	for i := 0; len(pool) < n; i++ {
		q, err := edge.Prepare(inputs[i%len(inputs)])
		if err != nil {
			return nil, fmt.Errorf("prepare query: %w", err)
		}
		pool = append(pool, q)
	}
	return pool, nil
}

type runResult struct {
	ok    int
	errs  int
	kinds map[string]int // error tally by kind: deadline, transport, other
	lats  []time.Duration
}

func (r *runResult) mergeKinds(kinds map[string]int) {
	if len(kinds) == 0 {
		return
	}
	if r.kinds == nil {
		r.kinds = map[string]int{}
	}
	for k, n := range kinds {
		r.kinds[k] += n
	}
}

// errKind buckets a failed prediction for the summary's error breakdown.
func errKind(err error) string {
	switch {
	case errors.Is(err, privehd.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, privehd.ErrTransport):
		return "transport"
	default:
		return "other"
	}
}

// predictOne issues one prepared-query prediction, with a per-request
// deadline stamped on the wire when one is configured.
func predictOne(ctx context.Context, cl privehd.Client, q []float64, deadline time.Duration) error {
	if deadline > 0 {
		rctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		_, _, err := cl.PredictPreparedContext(rctx, q)
		return err
	}
	_, _, err := cl.PredictPrepared(q)
	return err
}

// closedLoop runs workers synchronous loops for d: each worker fires its
// next query the moment the previous answer returns.
func closedLoop(ctx context.Context, cl privehd.Client, pool [][]float64, workers int, d, deadline time.Duration) runResult {
	until := time.Now().Add(d)
	var (
		mu  sync.Mutex
		res runResult
		wg  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				ok, errs int
				kinds    = map[string]int{}
				lats     []time.Duration
			)
			for i := w; time.Now().Before(until) && ctx.Err() == nil; i++ {
				t0 := time.Now()
				err := predictOne(ctx, cl, pool[i%len(pool)], deadline)
				if err != nil {
					errs++
					kinds[errKind(err)]++
					continue
				}
				ok++
				lats = append(lats, time.Since(t0))
			}
			mu.Lock()
			res.ok += ok
			res.errs += errs
			res.mergeKinds(kinds)
			res.lats = append(res.lats, lats...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return res
}

// openLoop dispatches queries on a fixed schedule of rate arrivals/s for
// d, with at most outstanding queries in flight. Latency is measured from
// each query's scheduled arrival time, so server-induced queueing counts
// against the server instead of being hidden by client backpressure.
func openLoop(ctx context.Context, cl privehd.Client, pool [][]float64, rate float64, outstanding int, d, deadline time.Duration) runResult {
	var (
		interval = time.Duration(float64(time.Second) / rate)
		start    = time.Now()
		until    = start.Add(d)
		sem      = make(chan struct{}, outstanding)
		mu       sync.Mutex
		res      runResult
		wg       sync.WaitGroup
	)
	for i := 0; ctx.Err() == nil; i++ {
		scheduled := start.Add(time.Duration(i) * interval)
		if scheduled.After(until) {
			break
		}
		if wait := time.Until(scheduled); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{} // blocks when the fleet falls behind; the wait is charged below
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := predictOne(ctx, cl, pool[i%len(pool)], deadline)
			lat := time.Since(scheduled)
			mu.Lock()
			if err != nil {
				res.errs++
				res.mergeKinds(map[string]int{errKind(err): 1})
			} else {
				res.ok++
				res.lats = append(res.lats, lat)
			}
			mu.Unlock()
		}(i, scheduled)
	}
	wg.Wait()
	return res
}

func percentiles(lats []time.Duration) (p50, p95, p99, max float64) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.95), at(0.99), at(1)
}

// scrapeQueries fetches url and sums every privehd_server_queries_total
// sample for model — the server-side ground truth the -check audit
// compares the client tally against.
func scrapeQueries(url, model string) (uint64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	var total uint64
	want := fmt.Sprintf(`model=%q`, model)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "privehd_server_queries_total{") || !strings.Contains(line, want) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse sample %q: %w", line, err)
		}
		total += uint64(v)
	}
	return total, sc.Err()
}

// scrapeHedges fetches url and sums privehd_cluster_hedges_total over
// all outcomes — how many backup requests the client-side hedging layer
// launched. Selfserve mode shares one process-wide registry between the
// fleet and the bench client, so the fleet's scrape endpoint sees the
// client-side counter too.
func scrapeHedges(url string) (uint64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	var total uint64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "privehd_cluster_hedges_total{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse sample %q: %w", line, err)
		}
		total += uint64(v)
	}
	return total, sc.Err()
}

// scrapeShardGathers fetches url and collects every
// privehd_shard_gathers_total sample, keyed by its shard label — the
// per-shard ground truth the sharded -check audit compares against.
func scrapeShardGathers(url string) (map[string]uint64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	out := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `privehd_shard_gathers_total{shard="`) {
			continue
		}
		rest := line[len(`privehd_shard_gathers_total{shard="`):]
		end := strings.Index(rest, `"}`)
		if end < 0 {
			continue
		}
		shard := rest[:end]
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("parse sample %q: %w", line, err)
		}
		out[shard] += uint64(v)
	}
	return out, sc.Err()
}

func printSummary(w io.Writer, s *summary) {
	fmt.Fprintf(w, "mode        %s (%s topology, %d replicas, concurrency %d)\n", s.Mode, s.Topology, s.Replicas, s.Concurrency)
	if s.Mode == "open" {
		fmt.Fprintf(w, "target rate %.0f /s\n", s.RateTarget)
	}
	fmt.Fprintf(w, "requests    %d ok, %d errors in %.2fs\n", s.Requests, s.Errors, s.Seconds)
	fmt.Fprintf(w, "throughput  %.0f queries/s\n", s.QPS)
	fmt.Fprintf(w, "latency     p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		s.P50ms, s.P95ms, s.P99ms, s.MaxMs)
	if s.MetricsChecked {
		fmt.Fprintf(w, "audit       /metrics agrees: server counted %d queries\n", s.ServerQueriesDelta)
	}
	if s.Hedges > 0 {
		fmt.Fprintf(w, "hedges      %d backup requests launched\n", s.Hedges)
	}
	if s.ShardGroups > 0 {
		fmt.Fprintf(w, "shards      scatter across %d shard groups\n", s.ShardGroups)
		shards := make([]string, 0, len(s.ShardGathers))
		for shard := range s.ShardGathers {
			shards = append(shards, shard)
		}
		sort.Strings(shards)
		for _, shard := range shards {
			fmt.Fprintf(w, "  %-30s %d gathers\n", shard, s.ShardGathers[shard])
		}
	}
	if s.Trace != nil {
		fmt.Fprintf(w, "traced      %d requests\n", s.Trace.Sampled)
		for _, name := range []string{"total", "client_queue", "network", "server_queue", "server_score", "server_total"} {
			if st, okStage := s.Trace.Stages[name]; okStage {
				fmt.Fprintf(w, "  %-13s p50 %.3fms  p95 %.3fms\n", name, st.P50ms, st.P95ms)
			}
		}
		fmt.Fprintf(w, "slowest     %s\n", strings.Join(s.Trace.SlowestTraces, " "))
	}
}
