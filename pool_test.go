package privehd_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privehd"

	"privehd/internal/offload"
)

// startRegistryReplicas serves the same registry from n loopback
// listeners — a one-process replica fleet — and returns their addresses,
// servers, and a cleanup func.
func startRegistryReplicas(t *testing.T, reg *privehd.Registry, n int) ([]string, []*privehd.Server) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*privehd.Server, n)
	for i := 0; i < n; i++ {
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
			case err := <-done:
				// Serve may start only after Close when a test ends
				// first; it then refuses with ErrServerClosed.
				if err != nil && !errors.Is(err, privehd.ErrServerClosed) {
					t.Errorf("replica Serve returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("replica did not stop")
			}
		})
		addrs[i] = lis.Addr().String()
		servers[i] = srv
	}
	return addrs, servers
}

// metricValue reads one series from the process-wide /metrics exposition,
// as an operator would; ok is false while the series is absent.
func metricValue(t *testing.T, series string) (v float64, ok bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	privehd.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, found := strings.CutPrefix(line, series+" "); found {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("unparseable exposition line %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

func TestDialPoolPredict(t *testing.T) {
	pipe, X, y := toyPipeline(t)
	addr, srv, cleanup := startPipelineServer(t, pipe)
	defer cleanup()

	// No edge: the pool auto-configures one from the advertised encoder
	// setup.
	pool, err := privehd.Connect(context.Background(),
		privehd.Target{Addrs: []string{addr}, Topology: privehd.TopologyPool},
		privehd.WithConnectPool(privehd.WithPoolSize(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Edge() == nil || pool.Edge().Dim() != pipe.Dim() {
		t.Fatalf("auto-configured edge = %+v", pool.Edge())
	}

	labels, err := pool.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, l := range labels {
		if l == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.9 {
		t.Errorf("pooled accuracy %v on separable toy task", acc)
	}

	// Concurrent callers multiplex over the bounded connection set.
	const callers = 16
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		idx := i % len(X)
		go func() {
			label, scores, err := pool.Predict(X[idx])
			if err != nil {
				errs <- err
				return
			}
			if label != labels[idx] || len(scores) != pipe.Classes() {
				errs <- fmt.Errorf("sample %d: got %d want %d", idx, label, labels[idx])
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if conns, _ := metricValue(t, `privehd_pool_connections{addr="`+addr+`"}`); conns < 1 || conns > 3 {
		t.Errorf("pool holds %v conns, want 1..3", conns)
	}
	if srv.Served() != len(X)+callers {
		t.Errorf("Served = %d, want %d", srv.Served(), len(X)+callers)
	}
}

func TestDialPoolUnknownModelTyped(t *testing.T) {
	pipe, _, _ := toyPipeline(t)
	addr, _, cleanup := startPipelineServer(t, pipe)
	defer cleanup()
	_, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs: []string{addr}, Model: "ghost", Topology: privehd.TopologyPool,
	})
	if !errors.Is(err, privehd.ErrUnknownModel) {
		t.Errorf("pool Connect(ghost) = %v, want ErrUnknownModel", err)
	}
}

func TestDialClusterUnknownModelTyped(t *testing.T) {
	pipe, _, _ := toyPipeline(t)
	reg := privehd.NewRegistry()
	if err := reg.Register("real", pipe); err != nil {
		t.Fatal(err)
	}
	addrs, _ := startRegistryReplicas(t, reg, 2)
	_, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs: addrs, Model: "ghost", Topology: privehd.TopologyCluster,
	})
	if !errors.Is(err, privehd.ErrUnknownModel) {
		t.Errorf("cluster Connect(ghost) = %v, want ErrUnknownModel", err)
	}
	if errors.Is(err, privehd.ErrNoHealthyReplicas) {
		t.Errorf("protocol rejection misreported as dead fleet: %v", err)
	}
}

func TestDialClusterFailover(t *testing.T) {
	pipe, X, y := toyPipeline(t)
	reg := privehd.NewRegistry()
	if err := reg.Register("toy", pipe); err != nil {
		t.Fatal(err)
	}
	addrs, servers := startRegistryReplicas(t, reg, 3)

	cl, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs: addrs, Model: "toy", Topology: privehd.TopologyCluster,
	},
		privehd.WithConnectProbeInterval(100*time.Millisecond),
		privehd.WithConnectPool(privehd.WithPoolIOTimeout(5*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const callers, rounds = 16, 12
	var total, succeeded, typed atomic.Int64
	killAt := make(chan struct{})
	var killOnce sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		idx := i % len(X)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				label, _, err := cl.Predict(X[idx])
				switch {
				case err == nil:
					if label != y[idx] {
						errs <- fmt.Errorf("sample %d misclassified as %d under failover", idx, label)
						return
					}
					succeeded.Add(1)
				case errors.Is(err, privehd.ErrTransport):
					typed.Add(1) // includes ErrNoHealthyReplicas
				default:
					errs <- fmt.Errorf("untyped failover error: %v", err)
					return
				}
				if total.Add(1) == callers*rounds/3 {
					killOnce.Do(func() { close(killAt) })
				}
			}
			errs <- nil
		}()
	}
	go func() {
		<-killAt
		servers[1].Close() // kill a replica mid-run, dropping its conns
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster predictions hung")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := succeeded.Load() + typed.Load(); got != callers*rounds {
		t.Fatalf("accounted %d of %d predictions", got, callers*rounds)
	}
	if succeeded.Load() < callers*rounds*9/10 {
		t.Errorf("only %d/%d predictions survived the replica kill", succeeded.Load(), callers*rounds)
	}
	deadline := time.Now().Add(5 * time.Second)
	healthy := `privehd_cluster_replica_healthy{replica="` + addrs[1] + `"}`
	for {
		if v, ok := metricValue(t, healthy); ok && v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killed replica never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestListModelsDiscovery(t *testing.T) {
	// Single, pool and cluster clients all discover the registry over the
	// wire.
	p1, X, _ := toyPipeline(t)
	p2, _, _ := toyPipeline(t, privehd.WithDim(256))
	reg := privehd.NewRegistry()
	if err := reg.Register("small", p2); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("big", p1); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetDefault("big"); err != nil {
		t.Fatal(err)
	}
	addrs, _ := startRegistryReplicas(t, reg, 1)

	check := func(t *testing.T, models []privehd.ModelInfo) {
		t.Helper()
		if len(models) != 2 {
			t.Fatalf("listed %d models", len(models))
		}
		if models[0].Name != "big" || !models[0].Default || models[0].Dim != 512 {
			t.Errorf("big = %+v", models[0])
		}
		if models[1].Name != "small" || models[1].Default || models[1].Dim != 256 {
			t.Errorf("small = %+v", models[1])
		}
	}

	remote, err := dialEdge(addrs[0], "big", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	models, err := remote.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	check(t, models)
	// Registry.Models agrees with the wire listing (Default included).
	check(t, reg.Models())

	pool, err := privehd.Connect(context.Background(), privehd.Target{Addrs: addrs[:1], Topology: privehd.TopologyPool})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	models, err = pool.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	check(t, models)

	cl, err := privehd.Connect(context.Background(), privehd.Target{Addrs: addrs, Topology: privehd.TopologyCluster})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	models, err = cl.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	check(t, models)

	// Discovery enables name-free workflows: pick a model from the wire
	// listing and predict through it.
	if _, _, err := pool.Predict(X[0]); err != nil {
		t.Fatal(err)
	}
}

// legacyHello is what a client of protocol v2–v5 writes after its header:
// a gob-encoded Hello{Dim: 512}, frozen here as bytes.
const legacyHello = "0\x7f\x03\x01\x01\x05Hello\x01\xff\x80\x00\x01\x03\x01\x03Dim\x01\x04\x00" +
	"\x01\aClasses\x01\x04\x00\x01\x05Model\x01\f\x00\x00\x00\a\xff\x80\x01\xfe\x04\x00\x00"

// refuseLegacy runs one hand-rolled session from a client of an earlier
// protocol version against addr — header plus Hello, written back to back
// as such a client does — and returns the server's handshake answer. It
// fails the test unless the answer arrives intact and is followed by a
// clean FIN: a server that closed with the client's Hello still unread
// would reset the connection and could destroy the refusal in flight.
func refuseLegacy(t *testing.T, addr string, version byte) offload.ServerHello {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(append([]byte{'P', 'H', 'D', version}, legacyHello...)); err != nil {
		t.Fatal(err)
	}
	hello, err := offload.ReadServerHello(conn)
	if err != nil {
		t.Fatalf("v%d: reading the handshake answer: %v", version, err)
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("v%d: after the refusal got %d bytes, %v, want a clean EOF", version, n, err)
	}
	return hello
}

func TestLegacyVersionsRefusedAlongsidePool(t *testing.T) {
	// While a pipelined Pool hammers the server, clients of every earlier
	// protocol version are refused at the handshake with the typed version
	// code — and the pool's traffic carries on without an error.
	pipe, X, _ := toyPipeline(t)
	addr, _, cleanup := startPipelineServer(t, pipe)
	defer cleanup()

	pool, err := privehd.Connect(context.Background(),
		privehd.Target{Addrs: []string{addr}, Topology: privehd.TopologyPool},
		privehd.WithConnectPool(privehd.WithPoolSize(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stop := make(chan struct{})
	poolErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				poolErr <- nil
				return
			default:
			}
			if _, err := pool.PredictBatch(X[:8]); err != nil {
				poolErr <- err
				return
			}
		}
	}()

	for _, version := range []byte{2, 3, 4, 5} {
		hello := refuseLegacy(t, addr, version)
		if hello.Version != privehd.ProtocolVersion {
			t.Errorf("v%d client: server advertised v%d, want v%d", version, hello.Version, privehd.ProtocolVersion)
		}
		if hello.Code != "version-mismatch" {
			t.Errorf("v%d client answered %q (%s), want the typed version-mismatch refusal",
				version, hello.Code, hello.Detail)
		}
	}
	close(stop)
	if err := <-poolErr; err != nil {
		t.Fatalf("pool traffic failed alongside refused legacy clients: %v", err)
	}
}

func TestDialWithIOTimeoutUnblocksHungServer(t *testing.T) {
	// A server that handshakes then goes silent must not block Predict
	// forever.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello, err := offload.ReadHello(conn)
		if err != nil {
			return
		}
		offload.WriteServerHello(conn, offload.ServerHello{
			Version: privehd.ProtocolVersion, Dim: hello.Dim, Classes: 2, MaxBatch: 8,
		})
		io.Copy(io.Discard, conn) // read requests forever, answer nothing
	}()

	edge, err := privehd.NewEdge(
		privehd.WithFeatures(12), privehd.WithDim(512), privehd.WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := dialEdge(lis.Addr().String(), "", edge,
		privehd.WithConnectPool(privehd.WithPoolIOTimeout(150*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	start := time.Now()
	_, _, err = remote.Predict(make([]float64, 12))
	if !errors.Is(err, privehd.ErrIOTimeout) || !errors.Is(err, privehd.ErrTransport) {
		t.Errorf("hung server: err = %v, want ErrIOTimeout wrapping ErrTransport", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Predict blocked %v despite 150ms i/o timeout", elapsed)
	}
}
