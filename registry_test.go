package privehd_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privehd"
)

// invertedToyData is toyData with the class labels flipped — a second
// workload whose trained model answers the opposite label, making hot
// swaps observable.
func invertedToyData(n, features int) (X [][]float64, y []int) {
	X, y = toyData(n, features)
	for i := range y {
		y[i] = 1 - y[i]
	}
	return X, y
}

// trainPipeline trains a pipeline on the given data with the toy geometry.
func trainPipeline(t *testing.T, X [][]float64, y []int, opts ...privehd.Option) *privehd.Pipeline {
	t.Helper()
	base := []privehd.Option{
		privehd.WithDim(512),
		privehd.WithLevels(8),
		privehd.WithSeed(11),
		privehd.WithRetrain(1),
	}
	p, err := privehd.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return p
}

// startRegistryServer serves a registry on a loopback listener.
func startRegistryServer(t *testing.T, reg *privehd.Registry, opts ...privehd.ServerOption) (string, *privehd.Server, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := privehd.NewRegistryServer(reg, opts...)
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

func TestServeRegistryMultiModel(t *testing.T) {
	// Two models with opposite label maps behind one listener; the model
	// name in the handshake decides which answers.
	X, y := toyData(40, 12)
	Xb, yb := invertedToyData(40, 12)
	pa := trainPipeline(t, X, y)
	pb := trainPipeline(t, Xb, yb)

	reg := privehd.NewRegistry()
	if err := reg.Register("straight", pa); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("inverted", pb); err != nil {
		t.Fatal(err)
	}
	addr, srv, cleanup := startRegistryServer(t, reg, privehd.WithServerWorkers(2))
	defer cleanup()

	models := reg.Models()
	if len(models) != 2 || models[0].Name != "inverted" || models[1].Name != "straight" {
		t.Fatalf("Models = %+v", models)
	}
	if models[0].Dim != 512 || models[0].Levels != 8 || models[0].Features != 12 || models[0].Seed != 11 {
		t.Errorf("ModelInfo did not capture the encoder setup: %+v", models[0])
	}

	for _, tc := range []struct {
		model   string
		flipped bool
	}{{"straight", false}, {"inverted", true}, {"", false}} {
		edge, err := pa.Edge()
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dialEdge(addr, tc.model, edge)
		if err != nil {
			t.Fatalf("dial %q: %v", tc.model, err)
		}
		labels, err := remote.PredictBatch(X)
		if err != nil {
			t.Fatalf("predict via %q: %v", tc.model, err)
		}
		correct := 0
		for i, l := range labels {
			want := y[i]
			if tc.flipped {
				want = 1 - want
			}
			if l == want {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(y)); acc < 0.9 {
			t.Errorf("model %q accuracy %v on its own label map", tc.model, acc)
		}
		remote.Close()
	}
	if srv.Registry() != reg {
		t.Error("Server.Registry should return the served registry")
	}
}

func TestDialUnknownModel(t *testing.T) {
	pipe, _, _ := toyPipeline(t)
	reg := privehd.NewRegistry()
	if err := reg.Register("only", pipe); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()
	edge, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	_, err = dialEdge(addr, "ghost", edge)
	if !errors.Is(err, privehd.ErrUnknownModel) {
		t.Errorf("dial ghost = %v, want ErrUnknownModel", err)
	}
	if _, err := dialEdge(addr, "ghost", nil); !errors.Is(err, privehd.ErrUnknownModel) {
		t.Errorf("auto-configuring dial ghost = %v, want ErrUnknownModel", err)
	}
}

func TestDialModelAutoConfiguresEdge(t *testing.T) {
	// The client knows only the server address and a model name; geometry,
	// encoding, levels and seed all come from the ServerHello. Its
	// auto-configured edge must predict exactly like a hand-built one.
	pipe, X, _ := toyPipeline(t, privehd.WithEncoding(privehd.Scalar), privehd.WithQuantizer("full"))
	reg := privehd.NewRegistry()
	if err := reg.Register("auto", pipe); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()

	remote, err := dialEdge(addr, "auto", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	models, err := remote.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "auto" || models[0].Version != 1 ||
		models[0].Dim != pipe.Dim() || models[0].Classes != pipe.Classes() {
		t.Fatalf("server lists %+v, want auto v1 of dim %d classes %d", models, pipe.Dim(), pipe.Classes())
	}
	edge := remote.Edge()
	if edge == nil || edge.Dim() != pipe.Dim() || edge.Features() != pipe.Features() {
		t.Fatalf("auto-configured edge missing or wrong geometry")
	}

	// Against the hand-built reference edge: identical prepared queries.
	ref, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	refQ, err := ref.Prepare(X[0])
	if err != nil {
		t.Fatal(err)
	}
	autoQ, err := edge.Prepare(X[0])
	if err != nil {
		t.Fatal(err)
	}
	for j := range refQ {
		if refQ[j] != autoQ[j] {
			t.Fatalf("auto-configured edge diverges from reference at dim %d", j)
		}
	}
	if _, _, err := remote.Predict(X[0]); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryHotSwapUnderConcurrentTraffic(t *testing.T) {
	// Clients hammer PredictBatch while the served model is swapped
	// between two opposite-label publications: no request may error, the
	// connection must survive, and both publications must be observed.
	X, y := toyData(40, 12)
	Xb, yb := invertedToyData(40, 12)
	pa := trainPipeline(t, X, y)
	pb := trainPipeline(t, Xb, yb)

	reg := privehd.NewRegistry()
	if err := reg.Register("hot", pa); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg, privehd.WithServerWorkers(4))
	defer cleanup()

	const clients = 4
	stop := make(chan struct{})
	var sawStraight, sawInverted atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edge, err := pa.Edge()
			if err != nil {
				errs <- err
				return
			}
			remote, err := dialEdge(addr, "hot", edge)
			if err != nil {
				errs <- err
				return
			}
			defer remote.Close()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				labels, err := remote.PredictBatch(X[:8])
				if err != nil {
					errs <- err
					return
				}
				// The toy task is cleanly separable, so a batch answered
				// by one publication matches either y or 1−y nearly
				// everywhere; tally which.
				match := 0
				for i, l := range labels {
					if l == y[i] {
						match++
					}
				}
				switch {
				case match >= 7:
					sawStraight.Add(1)
				case match <= 1:
					sawInverted.Add(1)
				}
			}
		}()
	}
	pubs := []*privehd.Pipeline{pb, pa}
	for v := 0; v < 30; v++ {
		if err := reg.Swap("hot", pubs[v%2]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("client failed during hot swap: %v", err)
		}
	}
	if sawStraight.Load() == 0 || sawInverted.Load() == 0 {
		t.Errorf("hot swap never observed both publications: straight=%d inverted=%d",
			sawStraight.Load(), sawInverted.Load())
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := privehd.NewRegistry()
	untrained, err := privehd.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("u", untrained); !errors.Is(err, privehd.ErrNotTrained) {
		t.Errorf("Register(untrained) = %v, want ErrNotTrained", err)
	}
	pipe, _, _ := toyPipeline(t)
	if err := reg.Register("m", pipe); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("m", pipe); err == nil {
		t.Error("duplicate Register should fail")
	}
	if err := reg.Swap("ghost", pipe); !errors.Is(err, privehd.ErrUnknownModel) {
		t.Errorf("Swap(ghost) = %v, want ErrUnknownModel", err)
	}
	if err := reg.Deregister("ghost"); !errors.Is(err, privehd.ErrUnknownModel) {
		t.Errorf("Deregister(ghost) = %v, want ErrUnknownModel", err)
	}
	if err := reg.SetDefault("m"); err != nil {
		t.Fatal(err)
	}
	if got := reg.DefaultName(); got != "m" {
		t.Errorf("DefaultName = %q", got)
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d", reg.Len())
	}
}

func TestPredictBatchChunksBeyondMaxBatch(t *testing.T) {
	// A server advertising a tiny MaxBatch must still serve a big
	// PredictBatch: the client transparently splits it into several
	// round trips instead of failing with ErrBatchTooLarge.
	pipe, X, y := toyPipeline(t)
	reg := privehd.NewRegistry()
	if err := reg.Register(privehd.DefaultModelName, pipe); err != nil {
		t.Fatal(err)
	}
	addr, srv, cleanup := startRegistryServer(t, reg, privehd.WithMaxBatch(4))
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
	labels, err := remote.PredictBatch(X) // 40 queries, 10 chunks
	if err != nil {
		t.Fatalf("PredictBatch over MaxBatch=4: %v", err)
	}
	if len(labels) != len(X) {
		t.Fatalf("answered %d of %d queries", len(labels), len(X))
	}
	correct := 0
	for i, l := range labels {
		if l == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.9 {
		t.Errorf("chunked accuracy %v", acc)
	}
	if srv.Served() != len(X) {
		t.Errorf("Served = %d, want %d", srv.Served(), len(X))
	}
}

func TestTrainOnline(t *testing.T) {
	X, y := toyData(60, 12)
	p, err := privehd.New(
		privehd.WithDim(512), privehd.WithLevels(8), privehd.WithSeed(11),
		privehd.WithClasses(2))
	if err != nil {
		t.Fatal(err)
	}
	// Stream the training set in three batches; the model must be usable
	// between batches and the reported contribution must be a positive,
	// monotonically non-decreasing running maximum.
	var last float64
	for i := 0; i < 3; i++ {
		lo, hi := i*20, (i+1)*20
		contribution, err := p.TrainOnline(X[lo:hi], y[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if contribution <= 0 {
			t.Fatalf("batch %d: contribution = %v, want > 0", i, contribution)
		}
		if contribution < last {
			t.Fatalf("running max contribution decreased: %v after %v", contribution, last)
		}
		last = contribution
		if !p.Trained() {
			t.Fatal("pipeline should be trained after the first online batch")
		}
	}
	acc, err := p.Evaluate(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("online-trained accuracy %v on separable toy task", acc)
	}
	// Online training continues from batch training too.
	pb, Xb, yb := toyPipeline(t)
	if _, err := pb.TrainOnline(Xb, yb); err != nil {
		t.Fatal(err)
	}
	if acc, err := pb.Evaluate(Xb, yb); err != nil || acc < 0.9 {
		t.Errorf("batch+online accuracy %v, err %v", acc, err)
	}
}

func TestTrainOnlineRejectsNoise(t *testing.T) {
	X, y := toyData(10, 12)
	p, err := privehd.New(
		privehd.WithDim(256), privehd.WithLevels(8), privehd.WithNoise(4, 1e-5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnline(X, y); err == nil {
		t.Fatal("TrainOnline with WithNoise must be rejected (weighted bundling voids the pre-calibrated sensitivity)")
	}
}

func TestTrainOnlineValidation(t *testing.T) {
	p, err := privehd.New(privehd.WithDim(256), privehd.WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnline(nil, nil); err == nil {
		t.Error("empty stream batch should error")
	}
	X, y := toyData(10, 12)
	if _, err := p.TrainOnline(X, y[:5]); err == nil {
		t.Error("mismatched labels should error")
	}
	if _, err := p.TrainOnline(X, y); err != nil {
		t.Fatal(err)
	}
	// Later batches must match the feature width fixed by the first.
	Xw, yw := toyData(4, 7)
	if _, err := p.TrainOnline(Xw, yw); err == nil {
		t.Error("feature-width drift should error")
	}
}

func TestTrainOnlineFailureLeavesPipelineUntouched(t *testing.T) {
	// A rejected first batch must not flip the pipeline to "trained" with
	// an empty model.
	p, err := privehd.New(privehd.WithDim(256), privehd.WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	X, y := toyData(10, 12)
	bad := make([][]float64, len(X))
	copy(bad, X)
	bad[3] = bad[3][:7] // wrong width mid-batch
	if _, err := p.TrainOnline(bad, y); err == nil {
		t.Fatal("mixed-width batch should error")
	}
	if p.Trained() {
		t.Fatal("failed first TrainOnline left the pipeline trained")
	}
	// A failed later batch (bad label) must leave the model — and the
	// reported contribution — exactly as before: no half-applied samples.
	if _, err := p.TrainOnline(X, y); err != nil {
		t.Fatal(err)
	}
	before, err := p.ClassVectors()
	if err != nil {
		t.Fatal(err)
	}
	yBad := append([]int(nil), y...)
	yBad[5] = -1
	if _, err := p.TrainOnline(X, yBad); err == nil {
		t.Fatal("negative label should error")
	}
	after, err := p.ClassVectors()
	if err != nil {
		t.Fatal(err)
	}
	for l := range before {
		for j := range before[l] {
			if before[l][j] != after[l][j] {
				t.Fatalf("failed batch mutated class %d dim %d", l, j)
			}
		}
	}
}

func TestTrainOnlineDoesNotMutatePublishedModel(t *testing.T) {
	// A pipeline published in a registry keeps streaming-training locally;
	// the published entry must keep answering from the old publication
	// until Swap, because each TrainOnline batch trains a copy.
	pipe, X, y := toyPipeline(t)
	reg := privehd.NewRegistry()
	if err := reg.Register("live", pipe); err != nil {
		t.Fatal(err)
	}
	published := reg.Models()[0]
	if _, err := pipe.TrainOnline(X, y); err != nil {
		t.Fatal(err)
	}
	// Registry still holds publication v1; swapping publishes the
	// online-refined model as v2.
	if got := reg.Models()[0]; got.Version != published.Version {
		t.Fatalf("TrainOnline bumped the published version to %d", got.Version)
	}
	if err := reg.Swap("live", pipe); err != nil {
		t.Fatal(err)
	}
	if got := reg.Models()[0]; got.Version != 2 {
		t.Errorf("post-swap version = %d, want 2", got.Version)
	}
}
