package privehd_test

// Acceptance coverage for sharded serving through the public facade: a
// model split across dimension and/or class shards answers bit-identically
// to whole-model serving, Connect picks (or sniffs) the topology, the
// tiling is validated, and a replica dying mid-run costs a shard retry —
// never a dropped request.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"privehd"
	"privehd/internal/offload"
)

// shardServer is one serving process of a sharded fleet, killable
// mid-test.
type shardServer struct {
	addr string
	srv  *privehd.Server
	done chan error
}

// Kill force-closes the server, dropping its in-flight requests.
func (s *shardServer) Kill() { s.srv.Close() }

// serveRegistry serves reg on a loopback listener until the test ends.
func serveRegistry(t *testing.T, reg *privehd.Registry) *shardServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := privehd.NewRegistryServer(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	t.Cleanup(func() {
		srv.Close()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("server did not stop")
		}
	})
	return &shardServer{addr: lis.Addr().String(), srv: srv, done: done}
}

// serveShardFleet registers one slice of p per entry in slices (with
// replicas servers per slice) and returns every server in slice-major
// order.
func serveShardFleet(t *testing.T, model string, p *privehd.Pipeline, slices []privehd.ShardSlice, replicas int) []*shardServer {
	t.Helper()
	var fleet []*shardServer
	for _, s := range slices {
		for r := 0; r < replicas; r++ {
			reg := privehd.NewRegistry()
			if err := reg.RegisterShard(model, p, s); err != nil {
				t.Fatal(err)
			}
			fleet = append(fleet, serveRegistry(t, reg))
		}
	}
	return fleet
}

func fleetAddrs(fleet []*shardServer) []string {
	addrs := make([]string, len(fleet))
	for i, s := range fleet {
		addrs[i] = s.addr
	}
	return addrs
}

// halves splits dim into two contiguous dimension shards.
func halves(dim int) []privehd.ShardSlice {
	return []privehd.ShardSlice{
		{DimOffset: 0, DimLen: dim / 2},
		{DimOffset: dim / 2, DimLen: dim - dim/2},
	}
}

// TestShardedEquivalentToWholeAcrossQuantizers is the acceptance bar: a
// D=8000 model split across two dimension shards must return bit-identical
// labels AND scores to serving the whole model, for every quantized
// encoding scheme.
func TestShardedEquivalentToWholeAcrossQuantizers(t *testing.T) {
	const dim = 8000
	X, y := toyData(24, 12)
	for _, scheme := range []string{"bipolar", "ternary", "ternary-biased", "2bit"} {
		t.Run(scheme, func(t *testing.T) {
			p := trainPipeline(t, X, y, privehd.WithDim(dim), privehd.WithQuantizer(scheme))

			wholeReg := privehd.NewRegistry()
			if err := wholeReg.Register("m", p); err != nil {
				t.Fatal(err)
			}
			whole := serveRegistry(t, wholeReg)
			fleet := serveShardFleet(t, "m", p, halves(dim), 1)

			ctx := context.Background()
			wc, err := privehd.Connect(ctx, privehd.Target{Addrs: []string{whole.addr}, Model: "m"})
			if err != nil {
				t.Fatal(err)
			}
			defer wc.Close()
			sc, err := privehd.Connect(ctx, privehd.Target{
				Addrs:    fleetAddrs(fleet),
				Model:    "m",
				Topology: privehd.TopologySharded,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()

			if sc.Topology() != privehd.TopologySharded {
				t.Fatalf("TopologySharded connected a %v client", sc.Topology())
			}
			if got := len(sc.Shards()); got != 2 {
				t.Fatalf("coordinator sees %d shard groups, want 2", got)
			}
			if sc.Edge().Dim() != dim {
				t.Fatalf("logical dim %d, want %d", sc.Edge().Dim(), dim)
			}

			for i, x := range X {
				wl, ws, err := wc.Predict(x)
				if err != nil {
					t.Fatalf("whole predict %d: %v", i, err)
				}
				sl, ss, err := sc.Predict(x)
				if err != nil {
					t.Fatalf("sharded predict %d: %v", i, err)
				}
				if wl != sl {
					t.Fatalf("query %d: whole label %d, sharded label %d", i, wl, sl)
				}
				if len(ws) != len(ss) {
					t.Fatalf("query %d: score lengths %d vs %d", i, len(ws), len(ss))
				}
				for c := range ws {
					if ws[c] != ss[c] {
						t.Fatalf("query %d class %d: whole score %v, sharded score %v — not bit-identical",
							i, c, ws[c], ss[c])
					}
				}
				_ = y // labels compared against each other, not ground truth
			}
		})
	}
}

// TestShardedGridEquivalence crosses dimension shards with class shards: a
// 2×2 grid (each replica serves half the dimensions of one class) must
// still answer bit-identically to the whole model.
func TestShardedGridEquivalence(t *testing.T) {
	const dim = 512
	X, y := toyData(30, 12)
	p := trainPipeline(t, X, y)

	wholeReg := privehd.NewRegistry()
	if err := wholeReg.Register("m", p); err != nil {
		t.Fatal(err)
	}
	whole := serveRegistry(t, wholeReg)

	grid := []privehd.ShardSlice{
		{DimOffset: 0, DimLen: dim / 2, ClassOffset: 0, ClassCount: 1},
		{DimOffset: 0, DimLen: dim / 2, ClassOffset: 1, ClassCount: 1},
		{DimOffset: dim / 2, DimLen: dim / 2, ClassOffset: 0, ClassCount: 1},
		{DimOffset: dim / 2, DimLen: dim / 2, ClassOffset: 1, ClassCount: 1},
	}
	fleet := serveShardFleet(t, "m", p, grid, 1)

	ctx := context.Background()
	wc, err := privehd.Connect(ctx, privehd.Target{Addrs: []string{whole.addr}, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	// TopologyAuto over a multi-address target must sniff the shard
	// descriptor from the handshake and build the sharded client itself.
	sc, err := privehd.Connect(ctx, privehd.Target{Addrs: fleetAddrs(fleet), Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if sc.Topology() != privehd.TopologySharded {
		t.Fatalf("auto topology over shard replicas connected a %v client, want sharded", sc.Topology())
	}
	if got := len(sc.Shards()); got != 4 {
		t.Fatalf("coordinator sees %d shard groups, want 4", got)
	}

	wholeLabels, err := wc.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	shardLabels, err := sc.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if wholeLabels[i] != shardLabels[i] {
			t.Fatalf("query %d: whole label %d, grid-sharded label %d", i, wholeLabels[i], shardLabels[i])
		}
	}
	// Per-query scores too: the grid reassembles each class's score from
	// one (dim, class) cell pair.
	for i, x := range X {
		wl, ws, err := wc.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		sl, ss, err := sc.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if wl != sl {
			t.Fatalf("query %d: labels diverge %d vs %d", i, wl, sl)
		}
		for c := range ws {
			if ws[c] != ss[c] {
				t.Fatalf("query %d class %d: %v vs %v — not bit-identical", i, c, ws[c], ss[c])
			}
		}
	}
	_ = y
}

// TestShardedReplicaKillZeroDrops is the -race acceptance test: two
// dimension shards with two replicas each, one replica killed mid-run;
// every concurrent request must succeed via the shard-level retry (the
// coordinator re-asks only the missing shard's surviving replica).
func TestShardedReplicaKillZeroDrops(t *testing.T) {
	const dim = 1024
	X, y := toyData(40, 12)
	_ = y
	p := trainPipeline(t, X, y, privehd.WithDim(dim))
	fleet := serveShardFleet(t, "m", p, halves(dim), 2)

	client, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs:    fleetAddrs(fleet),
		Model:    "m",
		Topology: privehd.TopologySharded,
	}, privehd.WithConnectProbeInterval(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var killOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i == perWorker/3 {
					// Kill the first replica of shard group 0 while every
					// worker is mid-stream.
					killOnce.Do(fleet[0].Kill)
				}
				if _, _, err := client.Predict(X[(w*perWorker+i)%len(X)]); err != nil {
					errCh <- fmt.Errorf("worker %d request %d dropped: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConnectTopologiesReturnConcreteClients pins the Connect dispatch:
// each explicit topology resolves to itself, the single-address auto
// default is a pool, auto over whole-model replicas is a cluster, and only
// sharded clients report shards.
func TestConnectTopologiesReturnConcreteClients(t *testing.T) {
	pipe, _, _ := toyPipeline(t)
	reg := privehd.NewRegistry()
	if err := reg.Register("m", pipe); err != nil {
		t.Fatal(err)
	}
	a := serveRegistry(t, reg)
	b := serveRegistry(t, reg)
	ctx := context.Background()

	cases := []struct {
		name   string
		target privehd.Target
		want   privehd.Topology
	}{
		{"single", privehd.Target{Addrs: []string{a.addr}, Topology: privehd.TopologySingle}, privehd.TopologySingle},
		{"pool", privehd.Target{Addrs: []string{a.addr}, Topology: privehd.TopologyPool}, privehd.TopologyPool},
		{"auto single addr", privehd.Target{Addrs: []string{a.addr}}, privehd.TopologyPool},
		{"cluster", privehd.Target{Addrs: []string{a.addr, b.addr}, Topology: privehd.TopologyCluster}, privehd.TopologyCluster},
		{"auto whole replicas", privehd.Target{Addrs: []string{a.addr, b.addr}}, privehd.TopologyCluster},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := privehd.Connect(ctx, tc.target)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.Topology(); got != tc.want {
				t.Fatalf("Connect resolved %v, want %v", got, tc.want)
			}
			if shards := c.Shards(); shards != nil {
				t.Fatalf("whole-model %v client reports shards %v", tc.want, shards)
			}
			if label, _, err := c.Predict(make([]float64, 12)); err != nil {
				t.Fatalf("predict through %v: %v (label %d)", tc.want, err, label)
			}
		})
	}
}

// TestConnectShardTilingMismatch: replicas whose slices leave a gap must
// be refused with the typed deployment error, not served approximately.
func TestConnectShardTilingMismatch(t *testing.T) {
	const dim = 512
	pipe, _, _ := toyPipeline(t)
	gappy := []privehd.ShardSlice{
		{DimOffset: 0, DimLen: 200},
		{DimOffset: 300, DimLen: dim - 300}, // dims 200–299 unserved
	}
	fleet := serveShardFleet(t, "m", pipe, gappy, 1)

	_, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs:    fleetAddrs(fleet),
		Model:    "m",
		Topology: privehd.TopologySharded,
	})
	if err == nil {
		t.Fatal("Connect accepted a fleet with a dimension gap")
	}
	if !errors.Is(err, privehd.ErrShardTiling) {
		t.Errorf("err = %v, want ErrShardTiling", err)
	}
}

// TestConnectShardedRejectsRawQueries: a raw-query edge cannot be
// partial-scored, so sharded Connect refuses it up front with the typed
// error rather than failing per-request.
func TestConnectShardedRejectsRawQueries(t *testing.T) {
	const dim = 512
	pipe, _, _ := toyPipeline(t)
	fleet := serveShardFleet(t, "m", pipe, halves(dim), 1)

	_, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs:    fleetAddrs(fleet),
		Model:    "m",
		Topology: privehd.TopologySharded,
	}, privehd.WithEdgeOptions(privehd.WithRawQueries()))
	if err == nil {
		t.Fatal("Connect built a sharded client over a raw-query edge")
	}
	if !errors.Is(err, privehd.ErrPartialUnsupported) {
		t.Errorf("err = %v, want ErrPartialUnsupported", err)
	}
}

// TestConnectShardedServesNonIntegerModel: an unquantized scalar model
// has non-integer classes, which every replica serves in fixed point at
// the whole model's scale. A sharded client over it connects, its labels
// match local prediction, and its scores match the whole model's server
// bit for bit.
func TestConnectShardedServesNonIntegerModel(t *testing.T) {
	const dim = 512
	pipe, X, _ := toyPipeline(t, privehd.WithEncoding(privehd.Scalar), privehd.WithQuantizer("full"))
	fleet := serveShardFleet(t, "m", pipe, halves(dim), 1)
	wholeReg := privehd.NewRegistry()
	if err := wholeReg.Register("m", pipe); err != nil {
		t.Fatal(err)
	}
	whole := serveRegistry(t, wholeReg)

	ctx := context.Background()
	sc, err := privehd.Connect(ctx, privehd.Target{
		Addrs:    fleetAddrs(fleet),
		Model:    "m",
		Topology: privehd.TopologySharded,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	wc, err := privehd.Connect(ctx, privehd.Target{Addrs: []string{whole.addr}, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	for i, x := range X {
		q, err := sc.Edge().Prepare(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe.PredictVector(q)
		if err != nil {
			t.Fatal(err)
		}
		label, scores, err := sc.PredictPrepared(q)
		if err != nil {
			t.Fatal(err)
		}
		_, wholeScores, err := wc.PredictPrepared(q)
		if err != nil {
			t.Fatal(err)
		}
		if label != want {
			t.Fatalf("query %d: sharded label %d, local %d", i, label, want)
		}
		for l := range scores {
			if scores[l] != wholeScores[l] {
				t.Fatalf("query %d class %d: sharded score %v, whole model %v", i, l, scores[l], wholeScores[l])
			}
		}
	}
}

// TestConnectShardedRefusedByV4OnlyReplica: a coordinator meeting a
// frozen v4-only replica must surface the version refusal as the typed
// handshake error — graceful, not a transport retry loop.
func TestConnectShardedRefusedByV4OnlyReplica(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// A replica of another version answers with its own version's header
	// and a typed refusal.
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, err := offload.ReadHello(conn); err != nil {
					return
				}
				offload.WriteServerHello(conn, offload.ServerHello{
					Code:    "version-mismatch",
					Detail:  "server speaks v4 only, client sent v6",
					Version: 4,
				})
			}(conn)
		}
	}()

	_, err = privehd.Connect(context.Background(), privehd.Target{
		Addrs:    []string{lis.Addr().String()},
		Topology: privehd.TopologySharded,
	})
	if err == nil {
		t.Fatal("Connect succeeded against a v4-only replica")
	}
	if !errors.Is(err, privehd.ErrVersionMismatch) {
		t.Errorf("err = %v, want ErrVersionMismatch", err)
	}
	if errors.Is(err, privehd.ErrTransport) {
		t.Errorf("version refusal wraps ErrTransport (would be retried): %v", err)
	}
}

// classShardFleet serves p split into two class shards (class 0, and the
// remaining classes, each over the full dimension range), one replica
// each, and returns the replicas' registries with their servers.
func classShardFleet(t *testing.T, p *privehd.Pipeline) ([]*privehd.Registry, []*shardServer) {
	t.Helper()
	classes := p.Classes()
	slices := []privehd.ShardSlice{
		{ClassOffset: 0, ClassCount: 1},
		{ClassOffset: 1, ClassCount: classes - 1},
	}
	var regs []*privehd.Registry
	var fleet []*shardServer
	for _, s := range slices {
		reg := privehd.NewRegistry()
		if err := reg.RegisterShard("m", p, s); err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg)
		fleet = append(fleet, serveRegistry(t, reg))
	}
	return regs, fleet
}

// TestShardedSwapKeepsDescriptor: retrain-then-Swap on a class shard keeps
// the entry a shard — its handshake still advertises the descriptor, the
// new pipeline is sliced by it, and once every shard is swapped the fleet
// answers bit-identically to whole-model serving of the new pipeline.
func TestShardedSwapKeepsDescriptor(t *testing.T) {
	X, y := toyData(30, 12)
	p := trainPipeline(t, X, y)
	retrained := trainPipeline(t, X[:10], y[:10])
	regs, fleet := classShardFleet(t, p)

	ctx := context.Background()
	target := privehd.Target{Addrs: fleetAddrs(fleet), Model: "m", Topology: privehd.TopologySharded}
	sc, err := privehd.Connect(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	want := sc.Shards()

	if err := regs[1].Swap("m", retrained); err != nil {
		t.Fatal(err)
	}
	// The live client keeps answering: the swapped replica still serves
	// exactly its descriptor's classes.
	if _, _, err := sc.Predict(X[0]); err != nil {
		t.Fatalf("predict after swapping one shard: %v", err)
	}
	// A fresh discovery reads the descriptors from the handshakes: had the
	// swap turned the replica into a whole model, the fleet would overlap.
	fresh, err := privehd.Connect(ctx, target)
	if err != nil {
		t.Fatalf("rediscovery after swap: %v", err)
	}
	defer fresh.Close()
	if got := fresh.Shards(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("descriptors after swap = %v, want %v", got, want)
	}

	if err := regs[0].Swap("m", retrained); err != nil {
		t.Fatal(err)
	}
	wholeReg := privehd.NewRegistry()
	if err := wholeReg.Register("m", retrained); err != nil {
		t.Fatal(err)
	}
	wc, err := privehd.Connect(ctx, privehd.Target{Addrs: []string{serveRegistry(t, wholeReg).addr}, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	for _, c := range []privehd.Client{sc, fresh} {
		for i, x := range X {
			wl, ws, err := wc.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			sl, ss, err := c.Predict(x)
			if err != nil {
				t.Fatalf("sharded predict %d: %v", i, err)
			}
			if wl != sl || fmt.Sprint(ws) != fmt.Sprint(ss) {
				t.Fatalf("query %d: whole %d %v, sharded %d %v — not bit-identical", i, wl, ws, sl, ss)
			}
		}
	}

	// A pipeline of another geometry cannot replace a shard.
	other := trainPipeline(t, X, y, privehd.WithDim(256))
	if err := regs[0].Swap("m", other); err == nil {
		t.Error("Swap published a 256-dimensional pipeline over a shard of a 512-dimensional model")
	}
}

// TestShardedReplyShapeMismatchRefused: a replica whose served entry no
// longer matches the descriptor it advertised at discovery — here class
// shard 1 re-registered as the whole model — answers partial scores in
// the wrong shape. The coordinator must refuse that answer with the typed
// tiling error instead of indexing past its buffers and panicking the
// client process.
func TestShardedReplyShapeMismatchRefused(t *testing.T) {
	X, y := toyData(30, 12)
	p := trainPipeline(t, X, y)
	regs, fleet := classShardFleet(t, p)

	sc, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs: fleetAddrs(fleet), Model: "m", Topology: privehd.TopologySharded,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, _, err := sc.Predict(X[0]); err != nil {
		t.Fatal(err)
	}

	if err := regs[1].Deregister("m"); err != nil {
		t.Fatal(err)
	}
	if err := regs[1].Register("m", p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Predict(X[0]); !errors.Is(err, privehd.ErrShardTiling) {
		t.Fatalf("predict against a mis-shaped replica: err = %v, want ErrShardTiling", err)
	}
	if _, err := sc.PredictBatch(X[:4]); !errors.Is(err, privehd.ErrShardTiling) {
		t.Fatalf("batch predict against a mis-shaped replica: err = %v, want ErrShardTiling", err)
	}
}
