// Command privehd-serve is the cloud side of the §III-C offloaded
// inference demo: it serves one or many models over TCP with the versioned
// privehd protocol (clients pick a model by name in the handshake and can
// auto-configure their edge from the answer). Pair it with `privehd
// infer`, examples/cloud_inference, or any privehd.Connect client.
// SIGINT/SIGTERM trigger a graceful shutdown that finishes in-flight
// requests.
//
// Serve saved pipelines by name (repeatable; the first is the default
// unless -default says otherwise):
//
//	privehd-serve -model isolet=isolet.gob -model faces=faces.gob -default faces
//
// A bare path serves that pipeline as "default":
//
//	privehd-serve -model pipeline.gob
//
// With no -model flags it trains a model on a synthetic workload and
// serves that:
//
//	privehd-serve [-addr :7311] [-dataset isolet-s] [-dim 10000]
//	              [-max-batch 256] [-workers 0]
//
// -replicas N serves the same registry from N listeners on consecutive
// ports — a one-process stand-in for a replica fleet that cluster clients
// (privehd.Connect with TopologyCluster) balance over and fail across:
//
//	privehd-serve -addr :7311 -replicas 3
//
// -shard dim=A:B[,class=C:D] serves only that slice of each model — one
// replica of a model split across a fleet. Start one process per slice
// (the descriptors must tile the model exactly) and point a sharded
// client (privehd.Connect with TopologySharded) at all of them; it
// scatter–gathers exact partial scores and predicts bit-identically to
// whole-model serving:
//
//	privehd-serve -addr :7311 -shard dim=0:5000
//	privehd-serve -addr :7312 -shard dim=5000:10000
//
// -store DIR makes the deployment durable: every published model lives in
// a crash-safe versioned store under DIR, and a restart replays the exact
// active versions and default that were live before. Models already in the
// store win over same-named -model flags; new names from -model flags (and
// a first-boot self-trained model) are published into the store. -admin
// ADDR (requires -store and -admin-token TOKEN, or PRIVEHD_ADMIN_TOKEN in
// the environment) adds the HTTP management plane: upload, activate,
// rollback, set-default, deregister and list — see privehd.ServeAdmin.
//
//	privehd-serve -store /var/lib/privehd -admin 127.0.0.1:7312 -admin-token t
//
// Observability: -trace-sample R traces a fraction of requests end to end
// (stage-timing replies, the GET /v1/debug/requests flight recorder, and
// trace-ID exemplars on /metrics histograms), -slow-request D logs a
// structured warning with a stage breakdown for any request slower than D,
// and -pprof mounts net/http/pprof on the -admin API — behind its bearer
// token, never on the public serve listener. PRIVEHD_TRACE_SAMPLE and
// PRIVEHD_PPROF are the environment equivalents.
//
//	privehd-serve -admin 127.0.0.1:7312 -admin-token t -store /var/lib/privehd \
//	              -trace-sample 0.01 -slow-request 50ms -pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"privehd"
)

// modelFlags collects repeatable -model name=path values.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ", ") }

func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// fatal logs one error event and exits non-zero — the contract operators
// and process supervisors rely on for startup failures. It falls back to
// plain stderr before the logger exists.
func fatal(log *slog.Logger, err error) {
	if log == nil {
		fmt.Fprintln(os.Stderr, "privehd-serve:", err)
	} else {
		log.Error("fatal", "error", err)
	}
	os.Exit(1)
}

// newLogger builds the process logger from the -log-format and -log-level
// flags. Logs go to stderr, keeping stdout clean for data a pipeline might
// consume.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (valid: debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
	}
}

func main() {
	var models modelFlags
	flag.Var(&models, "model",
		"serve a saved pipeline as name=path (repeatable); a bare path serves it as \"default\"")
	addr := flag.String("addr", ":7311", "listen address")
	defaultName := flag.String("default", "",
		"model served to clients that name none (defaults to the first -model)")
	name := flag.String("dataset", "isolet-s",
		"workload to train a model on when no -model is given: "+strings.Join(privehd.DatasetNames(), ", "))
	dim := flag.Int("dim", 10000, "hypervector dimensionality (self-trained model)")
	levels := flag.Int("levels", 100, "feature quantization levels (self-trained model)")
	seed := flag.Uint64("seed", 1, "random seed (auto-configuring clients read it from the handshake; manual edges must match)")
	small := flag.Bool("small", false, "train on the small dataset scale")
	maxBatch := flag.Int("max-batch", 256, "largest query batch accepted per request")
	workers := flag.Int("workers", 0,
		"queries scored at once across all connections, and goroutines per batch (0 = GOMAXPROCS)")
	replicas := flag.Int("replicas", 1,
		"serve the registry from this many listeners on consecutive ports (cluster clients balance across them)")
	shardSpec := flag.String("shard", "",
		"serve only a slice of each model, as dim=A:B and/or class=A:B (half-open ranges, e.g. dim=0:2000 or dim=0:2000,class=0:5); sharded clients (privehd.Connect with TopologySharded) scatter-gather across a fleet of such slices")
	// Scalar default: the self-trained model stays full precision, and
	// 1-bit edge queries only track a full-precision model under the
	// Eq. 2a form — matching `privehd infer`'s default.
	encName := flag.String("encoding", "scalar",
		"paper encoding for the self-trained model: level (Eq. 2b) or scalar (Eq. 2a)")
	storeDir := flag.String("store", "",
		"durable model store directory: published models survive restarts (created if missing)")
	adminAddr := flag.String("admin", "",
		"HTTP management-plane listen address (requires -store and an admin token)")
	adminToken := flag.String("admin-token", "",
		"bearer token for the -admin API (or set PRIVEHD_ADMIN_TOKEN)")
	metricsAddr := flag.String("metrics", "",
		"standalone Prometheus /metrics listen address (the -admin API also serves GET /metrics)")
	maxConns := flag.Int("max-conns", 0,
		"largest number of open serving connections per listener; extra connections get a typed overload rejection (0 = unlimited)")
	pprofFlag := flag.Bool("pprof", false,
		"mount /debug/pprof on the -admin API, behind its bearer token (or set PRIVEHD_PPROF=1); requires -admin — profiles never bind the public serve listener")
	traceSample := flag.Float64("trace-sample", -1,
		"fraction of requests to trace end to end, 0..1 (or set PRIVEHD_TRACE_SAMPLE); traced requests feed GET /v1/debug/requests and metrics exemplars (default 0: disabled)")
	slowReq := flag.Duration("slow-request", 0,
		"log a structured warning with a stage breakdown for requests this slow server-side, traced or not (0 = disabled)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	log, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(nil, err)
	}

	var shardSlice *privehd.ShardSlice
	if *shardSpec != "" {
		s, err := parseShardSlice(*shardSpec)
		if err != nil {
			fatal(log, err)
		}
		if *storeDir != "" {
			fatal(log, fmt.Errorf("-shard is incompatible with -store: slices are derived at startup, the durable publication stays whole"))
		}
		shardSlice = &s
	}
	if *adminAddr != "" && *storeDir == "" {
		fatal(log, fmt.Errorf("-admin requires -store: the management plane mutates durable state"))
	}
	token := *adminToken
	if token == "" {
		token = os.Getenv("PRIVEHD_ADMIN_TOKEN")
	}
	if *adminAddr != "" && token == "" {
		fatal(log, fmt.Errorf("-admin requires -admin-token (or PRIVEHD_ADMIN_TOKEN): refusing an unauthenticated management plane"))
	}
	enablePprof := *pprofFlag
	if !enablePprof {
		switch strings.ToLower(os.Getenv("PRIVEHD_PPROF")) {
		case "", "0", "false", "no":
		default:
			enablePprof = true
		}
	}
	if enablePprof && *adminAddr == "" {
		fatal(log, fmt.Errorf("-pprof requires -admin: profiling handlers only bind the authenticated admin listener, never the public serve listener"))
	}
	sample := *traceSample
	if sample < 0 {
		sample = 0
		if v := os.Getenv("PRIVEHD_TRACE_SAMPLE"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				fatal(log, fmt.Errorf("bad PRIVEHD_TRACE_SAMPLE %q: %w", v, err))
			}
			sample = f
		}
	}
	if sample < 0 || sample > 1 {
		fatal(log, fmt.Errorf("-trace-sample must be in 0..1, got %v", sample))
	}
	privehd.SetTraceSampling(sample)

	reg, mgr, sources, err := buildDeployment(log, models, *storeDir, *defaultName,
		*name, *dim, *levels, *seed, *small, *encName, shardSlice)
	if err != nil {
		fatal(log, err)
	}
	if *replicas < 1 {
		*replicas = 1
	}
	listeners, err := listenReplicas(*addr, *replicas)
	if err != nil {
		fatal(log, err)
	}
	var adminLis net.Listener
	if *adminAddr != "" {
		adminLis, err = net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(log, fmt.Errorf("admin listener: %w", err))
		}
	}
	var metricsLis net.Listener
	if *metricsAddr != "" {
		metricsLis, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(log, fmt.Errorf("metrics listener: %w", err))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	replicaAddrs := make([]string, len(listeners))
	for i, lis := range listeners {
		replicaAddrs[i] = lis.Addr().String()
	}
	log.Info("serving",
		"models", reg.Len(),
		"addrs", strings.Join(replicaAddrs, ","),
		"protocol", privehd.ProtocolVersion,
		"default", reg.DefaultName(),
		"replicas", len(listeners))
	// One event per model with its provenance, so an operator can check a
	// recovery at a glance: source=store means it survived a restart.
	for _, m := range reg.Models() {
		log.Info("model live",
			"model", m.Name, "version", m.Version, "source", sources[m.Name],
			"dim", m.Dim, "classes", m.Classes,
			"encoding", m.Encoding.String(), "levels", m.Levels, "seed", m.Seed)
	}
	if adminLis != nil {
		log.Info("management plane up", "addr", adminLis.Addr().String(), "auth", "bearer", "pprof", enablePprof)
	}
	if metricsLis != nil {
		log.Info("metrics exposition up", "addr", metricsLis.Addr().String())
	}
	if sample > 0 {
		log.Info("request tracing enabled", "sample", sample)
	}
	opts := []privehd.ServerOption{privehd.WithMaxBatch(*maxBatch)}
	if *workers > 0 {
		opts = append(opts, privehd.WithServerWorkers(*workers))
	}
	if *maxConns > 0 {
		opts = append(opts, privehd.WithMaxConns(*maxConns))
	}
	if *slowReq > 0 {
		opts = append(opts, privehd.WithSlowRequestLog(log, *slowReq))
	}
	// One server per listener, all answering from the same live registry:
	// a Register or Swap takes effect on every replica at once. The admin
	// and metrics planes join the same error channel, so their failure
	// tears the process down non-zero like a data-plane failure would.
	serves := len(listeners)
	errCh := make(chan error, serves+2)
	for _, lis := range listeners {
		go func(lis net.Listener) {
			errCh <- privehd.ServeRegistry(ctx, lis, reg, opts...)
		}(lis)
	}
	if adminLis != nil {
		serves++
		var aopts []privehd.AdminOption
		if enablePprof {
			aopts = append(aopts, privehd.WithAdminPprof())
		}
		go func() {
			errCh <- privehd.ServeAdmin(ctx, adminLis, mgr, token, aopts...)
		}()
	}
	if metricsLis != nil {
		serves++
		go func() {
			errCh <- privehd.ServeMetrics(ctx, metricsLis)
		}()
	}
	for i := 0; i < serves; i++ {
		if err := <-errCh; err != nil {
			fatal(log, err)
		}
	}
	log.Info("shut down cleanly")
}

// parseShardSlice parses the -shard flag: comma-separated dim=A:B and/or
// class=A:B half-open ranges.
func parseShardSlice(spec string) (privehd.ShardSlice, error) {
	var s privehd.ShardSlice
	for _, part := range strings.Split(spec, ",") {
		key, rng, ok := strings.Cut(part, "=")
		if !ok {
			return s, fmt.Errorf("bad -shard part %q (want dim=A:B or class=A:B)", part)
		}
		loStr, hiStr, ok := strings.Cut(rng, ":")
		if !ok {
			return s, fmt.Errorf("bad -shard range %q (want A:B, half-open)", rng)
		}
		lo, err := strconv.Atoi(loStr)
		if err != nil {
			return s, fmt.Errorf("bad -shard range %q: %w", rng, err)
		}
		hi, err := strconv.Atoi(hiStr)
		if err != nil {
			return s, fmt.Errorf("bad -shard range %q: %w", rng, err)
		}
		if lo < 0 || hi <= lo {
			return s, fmt.Errorf("bad -shard range %q: want 0 <= A < B", rng)
		}
		switch key {
		case "dim":
			s.DimOffset, s.DimLen = lo, hi-lo
		case "class":
			s.ClassOffset, s.ClassCount = lo, hi-lo
		default:
			return s, fmt.Errorf("bad -shard key %q (want dim or class)", key)
		}
	}
	return s, nil
}

// listenReplicas opens n listeners: the first on addr, the rest on the
// following ports (port 0 asks the kernel for n free ports instead). A
// single replica listens on addr as-is, so service-name ports keep
// working; consecutive-port math needs a numeric port.
func listenReplicas(addr string, n int) ([]net.Listener, error) {
	if n == 1 {
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		return []net.Listener{lis}, nil
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad -addr %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("-replicas needs a numeric -addr port to count from, got %q: %w", portStr, err)
	}
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		p := port
		if port != 0 {
			p = port + i
		}
		lis, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(p)))
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		listeners = append(listeners, lis)
	}
	return listeners, nil
}

// buildDeployment assembles the serving state: replay the store (when
// -store is set), layer -model flags on top (store wins on name clashes —
// an operator flag must not silently shadow a durable publication), and
// self-train a model only if nothing else produced one. sources records
// each model's provenance for the startup log. mgr is nil without -store.
func buildDeployment(log *slog.Logger, models modelFlags, storeDir, defaultName, dataset string,
	dim, levels int, seed uint64, small bool, encName string, shard *privehd.ShardSlice,
) (*privehd.Registry, *privehd.Manager, map[string]string, error) {
	reg := privehd.NewRegistry()
	sources := make(map[string]string)
	var mgr *privehd.Manager
	if storeDir != "" {
		var err error
		mgr, err = privehd.OpenManager(storeDir, reg, privehd.WithManagerLogger(log))
		if err != nil {
			return nil, nil, nil, err
		}
		for _, m := range reg.Models() {
			sources[m.Name] = "store"
		}
	}

	// publish makes a pipeline live — durably when a store backs us, as a
	// model slice when -shard narrows this replica's share.
	publish := func(name string, pipe *privehd.Pipeline) error {
		if shard != nil {
			return reg.RegisterShard(name, pipe, *shard)
		}
		if mgr != nil {
			_, err := mgr.Publish(name, pipe)
			return err
		}
		return reg.Register(name, pipe)
	}

	for _, spec := range models {
		name, path := privehd.DefaultModelName, spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		if name == "" || path == "" {
			return nil, nil, nil, fmt.Errorf("bad -model %q (want name=path or a bare path)", spec)
		}
		if sources[name] == "store" {
			log.Warn("model already in the store; ignoring -model flag (deregister it over the admin API to replace)",
				"model", name, "path", path)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, err
		}
		pipe, err := privehd.Load(f)
		f.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("loading %s: %w", path, err)
		}
		if err := publish(name, pipe); err != nil {
			return nil, nil, nil, err
		}
		sources[name] = "flag"
	}

	if reg.Len() == 0 {
		pipe, err := trainPipeline(log, dataset, dim, levels, seed, small, encName)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := publish(privehd.DefaultModelName, pipe); err != nil {
			return nil, nil, nil, err
		}
		sources[privehd.DefaultModelName] = "trained"
	}

	if defaultName != "" {
		if mgr != nil {
			if err := mgr.SetDefault(defaultName); err != nil {
				return nil, nil, nil, err
			}
		} else if err := reg.SetDefault(defaultName); err != nil {
			return nil, nil, nil, err
		}
	}
	return reg, mgr, sources, nil
}

// trainPipeline trains the self-served model on a synthetic workload.
func trainPipeline(log *slog.Logger, name string, dim, levels int, seed uint64, small bool, encName string) (*privehd.Pipeline, error) {
	d, err := privehd.LoadDataset(name, small)
	if err != nil {
		return nil, err
	}
	enc := privehd.Level
	switch encName {
	case "level":
	case "scalar":
		enc = privehd.Scalar
	default:
		return nil, fmt.Errorf("unknown encoding %q (valid: level, scalar)", encName)
	}
	// The served model stays full precision ("our technique does not need
	// to modify or access the trained model"); clients obfuscate on their
	// side.
	pipe, err := privehd.New(
		privehd.WithDim(dim),
		privehd.WithLevels(levels),
		privehd.WithSeed(seed),
		privehd.WithEncoding(enc),
		privehd.WithQuantizer("full"),
		privehd.WithRetrain(0),
	)
	if err != nil {
		return nil, err
	}
	log.Info("training full-precision model", "dataset", d.Name, "samples", len(d.TrainX), "dim", dim)
	if err := pipe.Train(d.TrainX, d.TrainY); err != nil {
		return nil, err
	}
	return pipe, nil
}
