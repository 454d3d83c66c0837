// Package privehd is a from-scratch Go reproduction of "Prive-HD:
// Privacy-Preserved Hyperdimensional Computing" (Khaleghi, Imani, Rosing —
// DAC 2020, arXiv:2005.06716), exposed as a single public API.
//
// This root package is the supported surface. Build a pipeline with the
// functional-options constructor, train it, and use it locally or over the
// network:
//
//	pipe, err := privehd.New(
//	    privehd.WithDim(10000),
//	    privehd.WithQuantizer("ternary-biased"), // Eq. 13 encoding quantization
//	    privehd.WithPruning(5000),               // §III-B1 dimension pruning
//	    privehd.WithNoise(8, 1e-5),              // Eq. 8 (ε,δ)-DP Gaussian noise
//	)
//	err = pipe.Train(X, y)
//	label, err := pipe.Predict(x)
//	labels, err := pipe.PredictBatch(X)          // goroutine-parallel
//	err = pipe.Save(w)                           // versioned; privehd.Load restores
//
// Train runs the paper's training sequence (§III-B): encode → quantize
// the encodings (Eq. 13) → bundle class hypervectors (Eq. 3) → prune
// close-to-zero dimensions and retrain with the mask (§III-B1) → add
// calibrated Gaussian noise once (Eq. 8). The noise is applied after
// retraining and the noisy model is never retrained — "as it violates the
// concept of differential privacy". The noise is scaled to the ℓ2
// sensitivity of one encoding over the kept dimensions: Eq. 14 for a
// quantized encoding, Eq. 12 for an unquantized one, the same rule
// Pipeline.Calibration reports before any data is seen. With a paper
// quantizer, Train and TrainOnline take the quantized encodings straight
// from the fused bit-sliced engine (integer counts → cut point → bit-
// planes, widened to the exact −2…+1 symbols), spread over WithWorkers
// goroutines; no float encoding is formed. Only the full-precision
// "full" scheme encodes in float.
//
// Fidelity note: the paper bounds the mechanism's ℓ2 sensitivity by the
// norm of a single (quantized) encoding, treating the retrained model like
// the one-shot sum of Eq. 3. Strictly, Eq. 5 retraining can bundle a
// sample more than once, which would enlarge the true sensitivity; this
// reproduction follows the paper's accounting and flags the caveat here
// rather than silently "fixing" the paper.
//
// Inference (§III-C) is the edge's sequence: encode → 1-bit quantize →
// mask, on the device, before the query is offloaded; the cloud-side
// model stays full precision and needs no modification or access.
//
// Streaming workloads train with Pipeline.TrainOnline, which bundles each
// sample with an error-proportional weight and returns the observed
// worst-case per-sample ℓ2 contribution so a DP release can be calibrated
// honestly (weighted bundling voids the fixed Eq. 12/14 bound).
//
// The §III-C offloaded-inference split is privehd.Serve and
// privehd.Connect: a versioned wire protocol with
// goroutine-per-connection reads, a bound on concurrent scoring shared
// across connections (WithServerWorkers), context cancellation, graceful
// shutdown and batched queries. A quantized query has one form from the
// edge's encoder to the server's kernel: two bit-planes of ⌈D/64⌉ words,
// the low and high bit of each symbol's 2-bit two's complement. The edge
// writes them straight off its encoder's counters, the codec copies their
// words into the frame — D/4 bytes for D dimensions — and the server
// copies them back out of pooled buffers into the planes its integer
// kernel scores, never widened to int8 or float64 on the way. A sharded
// client slices the planes at any dimension while writing the frame.
//
// The protocol is at v6, the one version servers speak. Each side opens
// with a "PHD"+version header, and every message after it is one
// length-prefixed binary frame (len:u32 | body, little-endian):
//
//	Hello        dim | classes | model
//	ServerHello  code | detail | dim | classes | maxBatch | minSymbol | maxSymbol |
//	             model | modelVersion | encoding | levels | features | seed | [shard]
//	Request      id | op | flags | [trace] | [budgetNs] | count | (kind | dim | payload)*
//	Reply        id | code | flags | [detail] | [results] | [models] | [timing] |
//	             [partials] | [normSq]
//
// A packed query's payload is its two bit-planes; a full-precision one
// (WithRawQueries) is dim float64s. Reply codes are a byte enum. A server
// refuses every other version byte at the handshake with the typed
// ErrVersionMismatch, and a client whose server does not answer with this
// version's header — an older gob-speaking server, say — surfaces the
// same refusal rather than retrying. Every reader checks a frame's length
// prefix against a cap before allocating: a request frame may be at most a
// full batch of the connection's model in full precision, and a longer one
// gets a typed frame-too-large refusal before the connection is closed. Per-
// request IDs make connections pipelined: requests from any number of
// goroutines interleave over one connection, each caller writing its own
// frame, and replies may return out of order, matched by ID by the
// connection's one reader goroutine — so one connection serves concurrent
// callers, large batches cost one round trip, and the list-models op
// discovers the served registry over the wire (Client.ListModels). The ServerHello carries the replica's shard
// descriptor when it serves a slice of a larger model, the partial-scores
// op returns exact integer partial dot products plus class norm squares
// for packed queries, and a draining server pushes one
// Reply{ID:0, GoAway:true} frame before half-closing, so clients stop
// submitting to it before the FIN arrives. The trace ID, budget and
// timing are the optional end-to-end fields: a sampled request carries a
// 64-bit trace ID to the server and gets its server-side stage timing
// (queue, scoring, total residency) back on the reply; the budget carries
// the caller's remaining deadline. Each rides the frame only when its
// flag bit is set, so plain traffic carries no bytes for them. Servers
// bound each new connection's handshake and drain a connection that sends
// nothing for two minutes with nothing in flight (pooled connections stay
// inside that bound with their in-band pings); WithPoolIOTimeout bounds
// reply progress so a hung server cannot block a Predict forever. The
// client side pairs connections with a Pipeline.Edge — the on-device
// obfuscator (1-bit quantization plus WithQueryMask dimension masking)
// whose output is all that ever crosses the wire:
//
//	go privehd.Serve(ctx, lis, pipe)
//	edge, err := pipe.Edge(privehd.WithQueryMask(1000))
//	c, err := privehd.Connect(ctx, privehd.Target{Addrs: []string{addr}}, privehd.WithEdge(edge))
//	labels, err := c.PredictBatch(X)
//
// Connect is the one client constructor, and Client the one client type,
// for every serving topology: the Target's Topology field — not the
// calling code — chooses between a single pipelined connection
// (TopologySingle), a bounded connection pool (TopologyPool), a replicated
// fleet with health-tracked failover (TopologyCluster) and a model split
// across shard replicas (TopologySharded). TopologyAuto (the zero value)
// sniffs: one address pools it, several addresses connect sharded when
// the handshake advertises a shard descriptor and as a cluster otherwise;
// Client.Topology reports what was resolved.
//
// Sharded serving splits one logical model across replicas by dimension
// slice and/or class range: Registry.RegisterShard publishes a slice
// (privehd-serve -shard dim=0:5000 from the command line), the
// handshake advertises it, and a sharded client scatters each packed
// query to every shard group, gathers their exact integer partial
// scores, and reduces — bit-identical to serving the unsplit model,
// because integer dot products compose exactly across a dimension
// partition. Replicas serving the same slice form a failover group, so a
// replica dying mid-gather retries only its own shard. Connect validates
// that the fleet's descriptors tile the full model exactly
// (ErrShardTiling). Every model kind shards: DP models round their noised
// classes to integers, and a model whose classes are not integers
// (unquantized scalar encoding, or online training) is served in fixed
// point at one scale for the whole model, which its slices share. Only
// full-precision (WithRawQueries) queries cannot be partial-scored; a
// sharded Connect over such an edge fails with ErrPartialUnsupported.
//
// Production deployments serve many models behind one listener through a
// Registry of named, versioned pipelines: clients select one in the
// handshake (Target.Model) and auto-configure their whole edge from the
// advertised encoder setup, knowing nothing but the name, and
// Registry.Swap hot-publishes an updated model without dropping
// connections or failing queries in flight (the registry view is one
// atomic RCU snapshot; lookups never block):
//
//	reg := privehd.NewRegistry()
//	err = reg.Register("isolet", pipe)           // first registered = default
//	go privehd.ServeRegistry(ctx, lis, reg, privehd.WithServerWorkers(8))
//	c, err := privehd.Connect(ctx, privehd.Target{Addrs: []string{addr}, Model: "isolet"})
//	err = reg.Swap("isolet", retrained)          // live, version-bumped
//
// Above single connections sit the client-side scaling layers. A pool
// multiplexes any number of concurrent callers over a small reused set of
// pipelined connections to one address — dial-on-demand, idle reaping,
// redial with backoff, and one transparent retry of idempotent queries on
// transport failure. A cluster serves one model from many replica
// addresses: least-in-flight balancing (ties rotate across replicas)
// over per-replica pools, ejection of replicas whose transport fails,
// periodic health probes that re-admit them, and transparent failover —
// callers only see ErrNoHealthyReplicas when the whole fleet is down, or
// a typed protocol error a live server actually answered:
//
//	cl, err := privehd.Connect(ctx, privehd.Target{ // edge auto-configured
//	    Addrs: addrs, Model: "isolet", Topology: privehd.TopologyCluster})
//	models, err := cl.ListModels()               // registry discovery over the wire
//	label, scores, err := cl.Predict(x)          // balanced + failover
//
// A Manager makes the deployment durable: OpenManager binds the registry
// to a crash-safe versioned on-disk model store and replays the last
// committed state — exact active versions and default — on restart, and
// ServeAdmin exposes the authenticated HTTP management plane (upload,
// activate, rollback, set-default, deregister, list with live served
// counters) over it. Every mutation is publish-after-persist: the store
// commits (temp-file + fsync + rename) before the registry swap goes
// live, so a crash never advertises state that won't survive. Load is
// hardened for this boundary — malformed or hostile blobs fail with
// ErrCorruptModel, bounded allocations, never a panic:
//
//	mgr, err := privehd.OpenManager("/var/lib/privehd", reg)
//	ver, err := mgr.Publish("isolet", pipe)      // durable, then live
//	go privehd.ServeAdmin(ctx, adminLis, mgr, token)
//
// The whole local hot path runs in the integer domain. Encoding is
// bit-sliced (internal/encslice): base and level hypervectors stay packed
// one bit per dimension, in one column-grouped layout that is the only
// copy of either memory — (F+ℓ)·⌈D/512⌉·64 bytes, about 0.9 MB at 617
// features, ℓ = 100 and D = 10 000 — and both paper encodings are evaluated by
// carry-save-adder popcount accumulation over column-grouped bit-planes,
// eight 64-bit columns per pass in AVX-512 or AVX2 registers where the CPU
// has them and in pure Go elsewhere or under the purego build tag,
// instead of a per-feature float64 multiply-add — with a fused path that
// derives the quantized −2…+1 query straight from the integer counts (the
// edge's 1-bit level query from a sign comparator on the counters, over
// its kept dimensions only), and a batch kernel that amortizes each pass
// over the item memory across several rows (training, PredictBatch). Scoring consumes the query's two
// bit-planes against class planes derived once per model publication:
// classes that fit int8 (every served model) become two's-complement
// bit-planes scored by AND and popcount against the query's planes,
// eight words per step with VPOPCNTQ where the CPU has AVX-512 VPOPCNTDQ
// and in pure Go elsewhere or under the purego build tag; wider ones become blocks of 256 dimensions in int16 or int32, scored by
// one dense and one gather kernel, each generic over that width — no
// float64 expansion, no float dot, no per-query heap
// allocation, and bit-identical results to the float reference path at
// every stage (see internal/encslice and
// internal/intscore for the exactness arguments). Registry entries carry
// the prepared planes through their RCU snapshots, so hot swaps re-derive
// them atomically; the server, Predict/PredictBatch and PredictVector
// all use the same engines. CI gates these hot paths —
// encoder benchmarks included — against a committed benchmark baseline
// (BENCH_baseline.json, cmd/benchgate): >20% normalized ns/op regression
// or any allocation on a zero-alloc path fails the build.
//
// The serving stack is observable in production without external
// dependencies. Every component records into one process-wide Prometheus
// text-format registry — server traffic (privehd_server_requests_total,
// privehd_server_queries_total, the privehd_server_request_seconds
// latency histogram, privehd_server_rejections_total by reason, byte and
// connection counters), per-replica pool and cluster health
// (privehd_pool_*, privehd_cluster_replica_healthy,
// privehd_cluster_health_transitions_total, privehd_cluster_failovers_total)
// and model lifecycle (privehd_model_publications_total,
// privehd_model_active_version, privehd_model_rollbacks_total).
// Recording is lock-free and allocation-free, so instrumentation stays on
// under full load. Scrape via MetricsHandler (mount anywhere), ServeMetrics
// (a dedicated listener), or GET /metrics on the admin API (served without
// the bearer token — counters only, never model data). WithMaxConns bounds
// admitted connections; excess dials receive a typed refusal that clients
// surface as ErrOverloaded, which wraps ErrTransport so pools retry and
// clusters fail over on their own. Cluster health transitions and manager
// model-lifecycle events emit structured log/slog records through
// WithConnectLogger and WithManagerLogger (silent by default). The
// cmd/privehd-bench load generator drives a real fleet closed- or
// open-loop and cross-audits the /metrics counters against its own tally.
//
// The fleet degrades gracefully rather than amplifying failure.
// PredictContext stamps the caller's remaining context budget on every
// request frame (Request.BudgetNs in the wire protocol), flagged so that
// undeadlined frames carry no budget bytes at all. Servers start the
// budget clock at frame arrival and shed queued work whose budget has
// expired, answering a typed rejection that surfaces as
// ErrDeadlineExceeded — deliberately not wrapped in ErrTransport, because
// retrying out-of-time work on another replica only wastes capacity. A
// cluster call has one retry loop, the cluster's failover (its pools make
// one attempt per visit), bounded by a per-call allowance of four
// failovers per replica that only a hedged pair shares, with jittered
// backoff; a doubling cooldown on each replica's ejection slows probe
// re-admission of flapping replicas, idle pooled connections are
// liveness-pinged in-band, and Target.Hedge arms tail-latency request
// hedging with an adaptive delay: a straggling attempt gets a backup on a
// second healthy replica, first reply wins, the loser is canceled. internal/chaos plus
// privehd-bench -chaos soak the whole stack under deterministic fault
// injection in CI.
//
// Request tracing closes the loop from a latency number to its cause.
// SetTraceSampling samples requests end to end: the trace ID travels in
// the wire frame, the server's stage breakdown (queue wait, scoring,
// total residency) returns on the reply, and the client attributes the
// rest of the round trip to its own queue and the network. Servers keep
// a lock-free flight recorder of the slowest and the errored requests —
// served by the admin API at GET /v1/debug/requests and mirrored by
// WithSlowRequestLog's structured slow-request events — and OpenMetrics
// scrapes carry the latest trace ID as an exemplar on the latency
// histogram. OnTrace, ClientTraces and ServerTraces expose the client
// and server recorders in-process. The untraced path costs nothing:
// sampling off is one atomic load and zero allocations per request
// (enforced by AllocsPerRun tests and the benchmark gate). Go runtime
// health (goroutines, heap, GC pauses, scheduler latency) is exported
// beside the serving metrics, and WithAdminPprof mounts net/http/pprof
// on the admin plane — behind its bearer token, never on a public
// listener.
//
// LoadDataset serves the paper's synthetic stand-in workloads,
// Edge.Reconstruct and MeasureReconstruction run the Eq. 10 eavesdropper
// analysis, Pipeline.Hardware and the netlist builders expose the §III-D
// FPGA path, and RunExperiments regenerates every paper table and figure.
// See README.md for the package map and a tour.
//
// Everything under internal/ — the hdc substrate, the quant/prune/dp
// privacy levers, the attack implementations, the offload wire protocol,
// the fpga/netlist/hdl hardware path and the experiment regenerators — is
// implementation detail: importable only from inside this module and free
// to change between versions. The wire protocol and the Save format are
// versioned independently of the Go API.
package privehd
