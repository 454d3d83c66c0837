// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (README "Experiments and benchmarks"). Each benchmark regenerates its artifact at
// smoke scale and logs the resulting rows under -v; headline numbers are
// attached as custom metrics. For the full-scale tables, run
// cmd/privehd-experiments instead.
package privehd_test

import (
	"context"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"privehd"

	"privehd/internal/dataset"
	"privehd/internal/experiments"
)

var (
	runnerOnce sync.Once
	benchR     *experiments.Runner
	runnerErr  error
)

// runner returns the shared smoke-scale runner; sharing amortizes the
// one-time dataset encoding across benchmarks, so iterations measure the
// experiment computation itself.
func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		benchR, runnerErr = experiments.NewRunner(experiments.SmokeContext())
	})
	if runnerErr != nil {
		b.Fatal(runnerErr)
	}
	return benchR
}

// lastCell parses the last row's cell c of a table as a float, stripping a
// trailing %.
func lastCell(b *testing.B, t *experiments.Table, c int) float64 {
	b.Helper()
	row := t.Rows[len(t.Rows)-1]
	s := strings.TrimSuffix(row[c], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q not numeric", row[c])
	}
	return v
}

func BenchmarkFig2Reconstruction(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table.String())
			b.ReportMetric(lastCell(b, res.Table, 2), "psnr_db")
		}
	}
}

func BenchmarkFig3Information(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig3(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

func BenchmarkFig4Retraining(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig4(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig5Quantization(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig5(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
			// Bipolar accuracy at the largest dimension (fig5a last row).
			b.ReportMetric(lastCell(b, tables[0], 2), "bipolar_acc_pct")
		}
	}
}

func BenchmarkFig6InferencePrivacy(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table.String())
			b.ReportMetric(lastCell(b, res.Table, 2), "masked_psnr_db")
		}
	}
}

func BenchmarkFig8DPTraining(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig8(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

func BenchmarkFig9InferenceQuant(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig9(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

func BenchmarkEq15LUTCost(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Eq15(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkApproxMajority(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.ApproxMajority(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTableIPlatforms(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableI(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Ablations(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

// BenchmarkServingThroughput measures the serving path end to end over
// loopback TCP — one shared pipelined connection vs a connection pool —
// with parallel callers, as the CI smoke step records. The pipelined
// protocol makes even a single shared connection usable concurrently; the
// pool spreads the same callers over several sockets.
func BenchmarkServingThroughput(b *testing.B) {
	pipe, err := privehd.New(
		privehd.WithDim(2048), privehd.WithLevels(8), privehd.WithSeed(7),
		privehd.WithFeatures(16), privehd.WithRetrain(0))
	if err != nil {
		b.Fatal(err)
	}
	X := make([][]float64, 64)
	y := make([]int, 64)
	for i := range X {
		x := make([]float64, 16)
		for k := range x {
			x[k] = 0.25 + 0.5*float64(i%2) + 0.01*float64(k%3)
		}
		X[i], y[i] = x, i%2
	}
	if err := pipe.Train(X, y); err != nil {
		b.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := privehd.NewServer(pipe)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	defer func() { srv.Close(); <-done }()
	addr := lis.Addr().String()

	edge, err := pipe.Edge()
	if err != nil {
		b.Fatal(err)
	}
	q, err := edge.Prepare(X[0])
	if err != nil {
		b.Fatal(err)
	}

	b.Run("single-conn", func(b *testing.B) {
		// No io timeout, so the connection pays no per-request deadline
		// bookkeeping.
		remote, err := privehd.Connect(context.Background(),
			privehd.Target{Addrs: []string{addr}, Topology: privehd.TopologySingle},
			privehd.WithEdge(edge), privehd.WithConnectPool(privehd.WithPoolIOTimeout(-1)))
		if err != nil {
			b.Fatal(err)
		}
		defer remote.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := remote.PredictPrepared(q); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("pooled", func(b *testing.B) {
		pool, err := privehd.Connect(context.Background(),
			privehd.Target{Addrs: []string{addr}, Topology: privehd.TopologyPool},
			privehd.WithEdge(edge), privehd.WithConnectPool(privehd.WithPoolSize(4)))
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := pool.PredictPrepared(q); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkShardedPredict measures the scatter–gather path: one logical
// model split across two dimension-shard replicas, every prediction fanned
// to both and reduced from exact integer partials. Comparing queries/s to
// BenchmarkServingThroughput/pooled shows the per-request cost of the v5
// partial-score gather.
func BenchmarkShardedPredict(b *testing.B) {
	const dim = 2048
	pipe, err := privehd.New(
		privehd.WithDim(dim), privehd.WithLevels(8), privehd.WithSeed(7),
		privehd.WithFeatures(16), privehd.WithRetrain(0))
	if err != nil {
		b.Fatal(err)
	}
	X := make([][]float64, 64)
	y := make([]int, 64)
	for i := range X {
		x := make([]float64, 16)
		for k := range x {
			x[k] = 0.25 + 0.5*float64(i%2) + 0.01*float64(k%3)
		}
		X[i], y[i] = x, i%2
	}
	if err := pipe.Train(X, y); err != nil {
		b.Fatal(err)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		reg := privehd.NewRegistry()
		if err := reg.RegisterShard("m", pipe, privehd.ShardSlice{
			DimOffset: i * dim / 2, DimLen: dim / 2,
		}); err != nil {
			b.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := privehd.NewRegistryServer(reg)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(context.Background(), lis) }()
		defer func() { srv.Close(); <-done }()
		addrs = append(addrs, lis.Addr().String())
	}

	client, err := privehd.Connect(context.Background(), privehd.Target{
		Addrs: addrs, Model: "m", Topology: privehd.TopologySharded,
	}, privehd.WithConnectPool(privehd.WithPoolSize(4)))
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	q, err := client.Edge().Prepare(X[0])
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := client.PredictPrepared(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkTrain measures Pipeline.Train at paper geometry: an isolet-s
// task of 617 features × 26 classes with 24 training samples per class,
// under the default configuration (level encoding, biased ternary, two
// retraining epochs) at D = 4000 and 10 000. Training encodes on the fused
// bit-sliced engine over WithWorkers goroutines (the default, every CPU),
// then bundles and retrains. It reports no allocation count: that count
// follows the worker count, so a strict gate on it would fail on a host
// with another number of CPUs.
func BenchmarkTrain(b *testing.B) {
	data, err := dataset.Gaussian(dataset.GaussianSpec{
		Name: "isolet-s", Features: 617, Classes: 26, TrainPer: 24, TestPer: 1,
		Separation: 0.15, Noise: 0.25, ActiveFraction: 0.25,
		ClusterSize: 2, IntraSeparation: 0.075, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, dim := range []int{4000, 10000} {
		b.Run("d"+strconv.Itoa(dim), func(b *testing.B) {
			pipe, err := privehd.New(privehd.WithDim(dim))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if err := pipe.Train(data.TrainX, data.TrainY); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemotePredict measures one caller's remote Predict at paper
// geometry — 617 features × 26 classes (isolet-s) — with the edge included:
// encode, quantize and mask on the device, frame, loopback transport,
// server scoring and reply. pool serves the whole model at D=4000 over one
// pooled connection; sharded splits a D=10 000 model across two
// dimension-shard replicas and gathers their exact integer partials.
// Allocations are counted for client and in-process servers together.
func BenchmarkRemotePredict(b *testing.B) {
	data, err := privehd.LoadDataset("isolet-s", true)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name        string
		dim, shards int
	}{
		{"pool", 4000, 1},
		{"sharded", 10000, 2},
	} {
		c := remoteFleet(b, data, bc.dim, bc.shards)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Predict(data.TestX[i%len(data.TestX)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		c.Close()
	}
}

// remoteFleet trains a model on data at dim, serves it whole (shards = 1)
// or split into equal dimension shards on loopback replicas until the
// benchmark ends, and connects one pooled connection per address with the
// auto-configured edge.
func remoteFleet(b *testing.B, data *privehd.Dataset, dim, shards int) privehd.Client {
	b.Helper()
	pipe, err := privehd.New(privehd.WithDim(dim), privehd.WithSeed(7), privehd.WithRetrain(0))
	if err != nil {
		b.Fatal(err)
	}
	if err := pipe.Train(data.TrainX, data.TrainY); err != nil {
		b.Fatal(err)
	}
	target := privehd.Target{Model: "m", Topology: privehd.TopologyPool}
	if shards > 1 {
		target.Topology = privehd.TopologySharded
	}
	for i := 0; i < shards; i++ {
		reg := privehd.NewRegistry()
		if shards == 1 {
			err = reg.Register("m", pipe)
		} else {
			err = reg.RegisterShard("m", pipe, privehd.ShardSlice{DimOffset: i * dim / shards, DimLen: dim / shards})
		}
		if err != nil {
			b.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := privehd.NewRegistryServer(reg)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(context.Background(), lis) }()
		b.Cleanup(func() { srv.Close(); <-done })
		target.Addrs = append(target.Addrs, lis.Addr().String())
	}
	c, err := privehd.Connect(context.Background(), target, privehd.WithConnectPool(privehd.WithPoolSize(1)))
	if err != nil {
		b.Fatal(err)
	}
	return c
}
