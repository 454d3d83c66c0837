package privehd

// In-package tests for Connect: they reach through the returned Client to
// pin values the public surface only documents, and compare every topology
// against local scoring of the same prepared queries.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"privehd/internal/cluster"
	"privehd/internal/intscore"
)

func trainToy(t *testing.T) *Pipeline {
	t.Helper()
	var X [][]float64
	var y []int
	for i := 0; i < 24; i++ {
		c := i % 2
		x := make([]float64, 8)
		for k := range x {
			x[k] = 0.25 + 0.5*float64(c) + 0.02*float64((i+k)%5-2)
		}
		X = append(X, x)
		y = append(y, c)
	}
	p, err := New(WithDim(256), WithLevels(8), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return p
}

// serveTest serves reg on a loopback listener until the test ends.
func serveTest(t *testing.T, reg *Registry) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return lis.Addr().String()
}

// TestTopologiesMatchLocalPrediction is the differential oracle for the
// serving topologies: every one of them, behind plain and masked edges,
// must return labels and scores bit-identical to classifying the same
// prepared queries locally — through Predict and PredictBatch (the edge's
// packed query, shipped as built) and through PredictPrepared (the
// caller's float query, packed by the client). A WithRawQueries edge pins
// the full-precision query form on every topology that can carry it. A
// DP release (WithNoise) runs the plain and masked edges on every
// topology, sharded included: its rounded classes score on the same
// integer path as any other model. A scalar-encoded model runs the plain
// and masked edges on every topology too, and so does one model per other
// paper quantizer (bipolar, ternary, 2-bit) beside the default biased
// ternary. Two models whose classes are not integers run the plain and
// masked edges on every topology as well: privehd-serve's default, scalar
// encoding with the "full" quantizer, and a TrainOnline model. Their
// engines score in fixed point, so local scoring means the engine's scores
// (which must also stay within 1e-5 of the largest float score), and their
// shards must agree with the whole model bit for bit.
// The cluster and a sharded fleet of two replicas per slice also
// run hedged ("+hedge"): at loopback latency most calls beat the hedge
// delay, so these rows pin the hedged path's results bit-identical rather
// than exercise the race itself. A second sharded fleet splits at 1001
// ("sharded-1001"), a boundary on no byte or word of the query planes, so
// every query is sliced with shifted words and a padded last byte.
func TestTopologiesMatchLocalPrediction(t *testing.T) {
	const dim = 2000
	data, err := LoadDataset("isolet-s", true)
	if err != nil {
		t.Fatal(err)
	}
	train := func(opts ...Option) *Pipeline {
		p, err := New(append([]Option{WithDim(dim), WithLevels(20), WithSeed(3), WithRetrain(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Train(data.TrainX, data.TrainY); err != nil {
			t.Fatal(err)
		}
		return p
	}
	trainOnline := func() *Pipeline {
		p, err := New(WithDim(dim), WithLevels(20), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.TrainOnline(data.TrainX, data.TrainY); err != nil {
			t.Fatal(err)
		}
		return p
	}
	models := []struct {
		name, prefix string
		p            *Pipeline
		raw          bool // also run the WithRawQueries edge
		// quantizer marks the per-quantizer models, which run the single
		// and unhedged sharded topologies only: their classes differ, the
		// serving path does not.
		quantizer bool
		// fixed marks the models with non-integer classes.
		fixed bool
	}{
		{"m", "", train(), true, false, false},
		{"dp", "dp/", train(WithNoise(4, 1e-5)), false, false, false},
		// A scalar-encoded edge takes the integer-numerator sign path and
		// masks afterwards, bypassing the level edge's comparator and
		// compacted memory.
		{"scalar", "scalar/", train(WithEncoding(Scalar)), false, false, false},
		{"bipolar", "bipolar/", train(WithQuantizer("bipolar")), false, true, false},
		{"ternary", "ternary/", train(WithQuantizer("ternary")), false, true, false},
		{"2bit", "2bit/", train(WithQuantizer("2bit")), false, true, false},
		{"full", "full/", train(WithEncoding(Scalar), WithQuantizer("full")), false, false, true},
		{"online", "online/", trainOnline(), false, false, true},
	}

	whole := NewRegistry()
	shards := []*Registry{NewRegistry(), NewRegistry(), NewRegistry(), NewRegistry()}
	slices := []ShardSlice{
		{DimOffset: 0, DimLen: dim / 2}, {DimOffset: dim / 2, DimLen: dim / 2},
		{DimOffset: 0, DimLen: 1001}, {DimOffset: 1001, DimLen: dim - 1001},
	}
	for _, m := range models {
		if err := whole.Register(m.name, m.p); err != nil {
			t.Fatal(err)
		}
		for i, reg := range shards {
			if err := reg.RegisterShard(m.name, m.p, slices[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	wholeAddrs := []string{serveTest(t, whole), serveTest(t, whole)}
	shardAddrs := []string{serveTest(t, shards[0]), serveTest(t, shards[1])}
	oddShardAddrs := []string{serveTest(t, shards[2]), serveTest(t, shards[3])}
	// Two replicas per slice, so each shard group has a replica to hedge to.
	replicatedShardAddrs := []string{shardAddrs[0], shardAddrs[1], serveTest(t, shards[0]), serveTest(t, shards[1])}

	X := data.TestX
	edges := []struct {
		name string
		opts []Option
	}{
		{"mask=0", nil},
		{fmt.Sprintf("mask=%d", dim/4), []Option{WithQueryMask(dim / 4)}},
		{"raw", []Option{WithRawQueries()}},
	}
	for _, m := range models {
		p := m.p
		targets := []Target{
			{Addrs: wholeAddrs[:1], Topology: TopologySingle, Model: m.name},
			{Addrs: wholeAddrs[:1], Topology: TopologyPool, Model: m.name},
			{Addrs: wholeAddrs, Topology: TopologyCluster, Model: m.name},
			{Addrs: shardAddrs, Topology: TopologySharded, Model: m.name},
			{Addrs: wholeAddrs, Topology: TopologyCluster, Model: m.name, Hedge: true},
			{Addrs: replicatedShardAddrs, Topology: TopologySharded, Model: m.name, Hedge: true},
			{Addrs: oddShardAddrs, Topology: TopologySharded, Model: m.name},
		}
		for _, ec := range edges {
			edge, err := p.Edge(ec.opts...)
			if err != nil {
				t.Fatal(err)
			}
			raw := edge.cfg.rawQueries
			if raw && !m.raw {
				continue
			}
			prepared := make([][]float64, len(X))
			wantLabels := make([]int, len(X))
			wantScores := make([][]float64, len(X))
			for i, x := range X {
				if prepared[i], err = edge.Prepare(x); err != nil {
					t.Fatal(err)
				}
				if wantLabels[i], err = p.PredictVector(prepared[i]); err != nil {
					t.Fatal(err)
				}
				wantScores[i] = p.model.Scores(prepared[i])
				if m.fixed {
					wantScores[i] = fixedScores(t, p, prepared[i], wantScores[i])
				}
			}
			check := func(t *testing.T, how string, i, label int, scores []float64) {
				t.Helper()
				if label != wantLabels[i] {
					t.Fatalf("query %d: %s label %d, local %d", i, how, label, wantLabels[i])
				}
				if len(scores) != len(wantScores[i]) {
					t.Fatalf("query %d: %s returned %d scores, local %d", i, how, len(scores), len(wantScores[i]))
				}
				for k := range scores {
					if scores[k] != wantScores[i][k] {
						t.Fatalf("query %d class %d: %s score %v, local %v — not bit-identical", i, k, how, scores[k], wantScores[i][k])
					}
				}
			}

			for _, target := range targets {
				if raw && target.Topology == TopologySharded {
					continue // refused at Connect; pinned below
				}
				if m.quantizer && (target.Hedge || target.Topology != TopologySingle && target.Topology != TopologySharded) {
					continue
				}
				name := fmt.Sprintf("%v/%s%s", target.Topology, m.prefix, ec.name)
				if len(target.Addrs) == 2 && target.Addrs[0] == oddShardAddrs[0] {
					name = fmt.Sprintf("sharded-1001/%s%s", m.prefix, ec.name)
				}
				if target.Hedge {
					name += "+hedge"
				}
				t.Run(name, func(t *testing.T) {
					c, err := Connect(context.Background(), target, WithEdge(edge))
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					labels, err := c.PredictBatch(X)
					if err != nil {
						t.Fatal(err)
					}
					for i, x := range X {
						if labels[i] != wantLabels[i] {
							t.Fatalf("query %d: PredictBatch %d, local %d", i, labels[i], wantLabels[i])
						}
						label, scores, err := c.Predict(x)
						if err != nil {
							t.Fatal(err)
						}
						check(t, "Predict", i, label, scores)
						label, scores, err = c.PredictPrepared(prepared[i])
						if err != nil {
							t.Fatal(err)
						}
						check(t, "PredictPrepared", i, label, scores)
					}
				})
			}
			if raw {
				t.Run("sharded/raw-prepared", func(t *testing.T) {
					c, err := Connect(context.Background(), targets[3])
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if _, _, err := c.PredictPrepared(prepared[0]); !errors.Is(err, ErrPartialUnsupported) {
						t.Fatalf("sharded PredictPrepared of a full-precision query: err %v, want ErrPartialUnsupported", err)
					}
				})
			}
		}
	}
}

// fixedScores returns the scores p's fixed-point engine gives the packed
// query q, after checking each lies within 1e-5 of the largest of the float
// path's scores float.
func fixedScores(t *testing.T, p *Pipeline, q, float []float64) []float64 {
	t.Helper()
	packed, ok := intscore.PackInto(q, nil)
	if !ok {
		t.Fatal("edge query is not in the packed alphabet")
	}
	got := p.model.PackedScorer().ScoresPackedInto(packed, make([]float64, len(float)))
	var top float64
	for _, f := range float {
		top = max(top, math.Abs(f))
	}
	for l := range got {
		if math.Abs(got[l]-float[l]) > 1e-5*top {
			t.Fatalf("class %d: fixed-point score %v, float %v", l, got[l], float[l])
		}
	}
	return got
}

func TestConnectSingleIOTimeoutDefault(t *testing.T) {
	// Every topology Connect builds promises the same 30s reply-progress
	// bound unless the caller tunes it. Pools get it from the pool
	// defaults; the single-connection topology must apply it explicitly —
	// a hung server should never block a TopologySingle Predict forever.
	srv, err := NewServer(trainToy(t))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	defer srv.Close()
	addr := lis.Addr().String()

	cases := []struct {
		name string
		opts []ConnectOption
		want time.Duration
	}{
		{"default", nil, cluster.DefaultIOTimeout},
		{"explicit", []ConnectOption{WithConnectPool(WithPoolIOTimeout(5 * time.Second))}, 5 * time.Second},
		{"disabled", []ConnectOption{WithConnectPool(WithPoolIOTimeout(-1))}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Connect(context.Background(),
				Target{Addrs: []string{addr}, Topology: TopologySingle}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			single, ok := c.(*client).be.(singleBackend)
			if !ok {
				t.Fatalf("TopologySingle built a %T backend", c.(*client).be)
			}
			if got := single.c.IOTimeout(); got != tc.want {
				t.Fatalf("wire IOTimeout = %v, want %v", got, tc.want)
			}
		})
	}
}
