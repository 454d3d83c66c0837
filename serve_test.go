package privehd_test

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

// startPipelineServer serves a toy pipeline and returns its address, the
// server and a cleanup func.
func startPipelineServer(t *testing.T, p *privehd.Pipeline) (string, *privehd.Server, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := privehd.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	cleanup := func() {
		srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("server did not stop")
		}
	}
	return lis.Addr().String(), srv, cleanup
}

// dialEdge connects a single-connection client carrying edge's queries to
// model at addr (a nil edge is auto-configured from the handshake).
func dialEdge(addr, model string, edge *privehd.Edge, opts ...privehd.ConnectOption) (privehd.Client, error) {
	return privehd.Connect(context.Background(), privehd.Target{
		Addrs: []string{addr}, Model: model, Topology: privehd.TopologySingle,
	}, append(opts, privehd.WithEdge(edge))...)
}

func TestServeDialPredict(t *testing.T) {
	pipe, X, y := toyPipeline(t)
	addr, srv, cleanup := startPipelineServer(t, pipe)
	defer cleanup()

	edge, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := dialEdge(addr, "", edge)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	models, err := remote.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Dim != pipe.Dim() || models[0].Classes != pipe.Classes() {
		t.Fatalf("server lists %+v, want one model of dim=%d classes=%d", models, pipe.Dim(), pipe.Classes())
	}

	labels, err := remote.PredictBatch(X)
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
		t.Errorf("remote accuracy %v on separable toy task", acc)
	}
	if srv.Served() != len(X) {
		t.Errorf("Served = %d, want %d", srv.Served(), len(X))
	}

	label, scores, err := remote.Predict(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if label != labels[0] || len(scores) != pipe.Classes() {
		t.Errorf("Predict label=%d scores=%v", label, scores)
	}
}

func TestDialRejectsGeometryMismatch(t *testing.T) {
	pipe, _, _ := toyPipeline(t) // dim 512
	addr, _, cleanup := startPipelineServer(t, pipe)
	defer cleanup()

	wrong, err := privehd.NewEdge(
		privehd.WithFeatures(12), privehd.WithDim(256), privehd.WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	_, err = dialEdge(addr, "", wrong)
	if !errors.Is(err, privehd.ErrGeometryMismatch) {
		t.Errorf("dim-256 edge against dim-512 server: err = %v, want ErrGeometryMismatch", err)
	}
}

func TestDialRejectsVersionMismatch(t *testing.T) {
	// A fake server that completes the handshake advertising a future
	// protocol version; Connect must refuse it with a typed error.
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
			Version: privehd.ProtocolVersion + 1,
			Dim:     hello.Dim,
			Classes: 2,
		})
	}()

	edge, err := privehd.NewEdge(
		privehd.WithFeatures(12), privehd.WithDim(512), privehd.WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	_, err = dialEdge(lis.Addr().String(), "", edge)
	if !errors.Is(err, privehd.ErrVersionMismatch) {
		t.Errorf("v%d server: err = %v, want ErrVersionMismatch", privehd.ProtocolVersion+1, err)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	pipe, X, _ := toyPipeline(t)
	addr, srv, cleanup := startPipelineServer(t, pipe)
	defer cleanup()

	// Reference answers from a lone client; concurrent clients send the
	// same queries and must get byte-identical replies — a concurrency
	// bug corrupting or reordering replies shows up as a mismatch.
	refEdge, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	refRemote, err := dialEdge(addr, "", refEdge)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refRemote.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	refRemote.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edge, err := pipe.Edge()
			if err != nil {
				errs <- err
				return
			}
			remote, err := dialEdge(addr, "", edge)
			if err != nil {
				errs <- err
				return
			}
			defer remote.Close()
			labels, err := remote.PredictBatch(X)
			if err != nil {
				errs <- err
				return
			}
			for i, l := range labels {
				if l != want[i] {
					errs <- fmt.Errorf("sample %d: predicted %d, reference %d", i, l, want[i])
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, wantServed := srv.Served(), (clients+1)*len(X); got != wantServed {
		t.Errorf("Served = %d, want %d", got, wantServed)
	}
}

func TestServeStopsOnContextCancel(t *testing.T) {
	pipe, X, _ := toyPipeline(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- privehd.Serve(ctx, lis, pipe) }()

	edge, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := dialEdge(lis.Addr().String(), "", edge)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, _, err := remote.Predict(X[0]); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after cancel = %v, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	if _, err := dialEdge(lis.Addr().String(), "", edge); err == nil {
		t.Error("Connect after shutdown should fail")
	}
}

func TestNewServerRequiresTrainedPipeline(t *testing.T) {
	p, err := privehd.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := privehd.NewServer(p); !errors.Is(err, privehd.ErrNotTrained) {
		t.Errorf("NewServer(untrained) = %v, want ErrNotTrained", err)
	}
}
