package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"privehd"
	"privehd/internal/dataset"
)

// workload is one traffic shape: model geometry, serving topology, edge
// defences and load.
type workload struct {
	name      string
	dim       int
	topology  privehd.Topology
	replicas  int // listeners per registry
	dimShards int // >1 splits the model by dimension, one registry per slice
	mask      int // edge WithQueryMask dimensions (0 = unmasked)
}

// workloads are the benchmark's traffic shapes; README.md says why each
// was chosen. Each is a closed loop of one caller: shapes that kept both
// vCPUs busy, or ran an open loop, followed how much CPU the host lent
// the process from run to run, past any bound a metric may have.
var workloads = []workload{
	{name: "predict-d4k", dim: 4000, topology: privehd.TopologyPool, replicas: 1},
	{name: "sharded-d10k", dim: 10000, topology: privehd.TopologySharded, replicas: 1, dimShards: 2, mask: 5000},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// groups is how many shard groups every logical query fans out to.
func (w workload) groups() int {
	if w.dimShards > 1 {
		return w.dimShards
	}
	return 1
}

const (
	// modelName is the registry name every fleet serves.
	modelName = "perfbench"
	// encoderSeed is the model's public encoder seed; the benchmark seed
	// drives only the generated inputs.
	encoderSeed = 42
	// Training split size: 24 samples per class keeps one set-up at about
	// 1 s (D=4000) and 3 s (D=10 000) on a 2-vCPU host.
	trainPer = 24
	testPer  = 20
)

// makeDataset generates the isolet-s task (617 features, 26 classes; the
// geometry and difficulty of dataset.ISOLETS) from the benchmark seed.
func makeDataset(seed uint64) (*dataset.Dataset, error) {
	return dataset.Gaussian(dataset.GaussianSpec{
		Name:            "isolet-s",
		Features:        617,
		Classes:         26,
		TrainPer:        trainPer,
		TestPer:         testPer,
		Separation:      0.15,
		Noise:           0.25,
		ActiveFraction:  0.25,
		ClusterSize:     2,
		IntraSeparation: 0.075,
		Seed:            seed,
	})
}

// phases are the timed steps of one set-up.
type phases struct {
	train, saveLoad, publish, serve, connect time.Duration
}

func (p phases) total() time.Duration {
	return p.train + p.saveLoad + p.publish + p.serve + p.connect
}

// preparedClient is the part of every Connect topology the benchmark
// drives beyond privehd.Client.
type preparedClient interface {
	privehd.Client
	PredictPrepared(q []float64) (int, []float64, error)
	Edge() *privehd.Edge
}

// fleet is an in-process serving fleet plus the client connected to it.
type fleet struct {
	w      workload
	model  *privehd.Pipeline // the served pipeline, after Save + Load
	client preparedClient
	edge   *privehd.Edge // the client's auto-configured edge
	addrs  []string
	phases phases
	// setupStart anchors the set-up phases for the traced span log.
	setupStart time.Time

	servers []*privehd.Server
	wg      sync.WaitGroup
}

// serveRegistries serves each registry on replicas loopback listeners
// and returns their addresses in registry order.
func serveRegistries(ctx context.Context, regs []*privehd.Registry, replicas int, servers *[]*privehd.Server, wg *sync.WaitGroup) ([]string, error) {
	var addrs []string
	for _, reg := range regs {
		for r := 0; r < replicas; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv := privehd.NewRegistryServer(reg)
			*servers = append(*servers, srv)
			addrs = append(addrs, lis.Addr().String())
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.Serve(ctx, lis)
			}()
		}
	}
	return addrs, nil
}

// registries publishes p whole, or split into dimShards dimension slices
// with one registry per slice.
func registries(p *privehd.Pipeline, dimShards int) ([]*privehd.Registry, error) {
	if dimShards <= 1 {
		reg := privehd.NewRegistry()
		return []*privehd.Registry{reg}, reg.Register(modelName, p)
	}
	dim := p.Dim()
	regs := make([]*privehd.Registry, dimShards)
	for s := range regs {
		d0, d1 := s*dim/dimShards, (s+1)*dim/dimShards
		regs[s] = privehd.NewRegistry()
		if err := regs[s].RegisterShard(modelName, p, privehd.ShardSlice{DimOffset: d0, DimLen: d1 - d0}); err != nil {
			return nil, err
		}
	}
	return regs, nil
}

// connectOptions are the client options every benchmark client uses: one
// connection per address, and the workload's edge mask.
func connectOptions(w workload, edge *privehd.Edge) []privehd.ConnectOption {
	opts := []privehd.ConnectOption{privehd.WithConnectPool(privehd.WithPoolSize(1))}
	if edge != nil {
		return append(opts, privehd.WithEdge(edge))
	}
	if w.mask > 0 {
		opts = append(opts, privehd.WithEdgeOptions(privehd.WithQueryMask(w.mask)))
	}
	return opts
}

// setUp trains the workload's model, round-trips it through Save and
// Load (the path a restarting server takes), publishes and serves it, and
// connects a client: everything setup_s times.
func setUp(w workload, ds *dataset.Dataset) (*fleet, error) {
	f := &fleet{w: w, setupStart: time.Now()}
	mark := f.setupStart
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}
	p, err := privehd.New(privehd.WithDim(w.dim), privehd.WithSeed(encoderSeed))
	if err != nil {
		return nil, err
	}
	if err := p.Train(ds.TrainX, ds.TrainY); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	f.phases.train = lap()

	var blob bytes.Buffer
	if err := p.Save(&blob); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	if f.model, err = privehd.Load(&blob); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	f.phases.saveLoad = lap()

	regs, err := registries(f.model, w.dimShards)
	if err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	f.phases.publish = lap()

	f.addrs, err = serveRegistries(context.Background(), regs, w.replicas, &f.servers, &f.wg)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	f.phases.serve = lap()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := privehd.Connect(ctx, privehd.Target{Addrs: f.addrs, Model: modelName, Topology: w.topology}, connectOptions(w, nil)...)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	f.phases.connect = lap()
	pc, ok := c.(preparedClient)
	if !ok {
		c.Close()
		f.close()
		return nil, fmt.Errorf("client %T lacks PredictPrepared", c)
	}
	f.client, f.edge = pc, pc.Edge()
	return f, nil
}

// close disconnects the client and stops every server, waiting for their
// Serve loops to return.
func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
}

// oracle holds the reference answer for every held-out input: the served
// model's local PredictVector of exactly the packed query the workload's
// edge sends. Plain Pipeline.Predict quantizes differently, so it cannot
// be the reference.
type oracle struct {
	inputs  [][]float64
	truth   []int
	queries [][]float64 // inputs as the workload's edge prepares them
	ref     []int
	// first is the first remote label seen per input (-1 before any).
	first []atomic.Int32
	wrong atomic.Int64
}

func newOracle(f *fleet, ds *dataset.Dataset) (*oracle, error) {
	o := &oracle{
		inputs:  ds.TestX,
		truth:   ds.TestY,
		queries: make([][]float64, len(ds.TestX)),
		ref:     make([]int, len(ds.TestX)),
		first:   make([]atomic.Int32, len(ds.TestX)),
	}
	for i, x := range ds.TestX {
		q, err := f.edge.Prepare(x)
		if err != nil {
			return nil, err
		}
		if o.ref[i], err = f.model.PredictVector(q); err != nil {
			return nil, err
		}
		o.queries[i] = q
		o.first[i].Store(-1)
	}
	return o, nil
}

// check records a remote label for input i and reports whether it matches
// the reference.
func (o *oracle) check(i, label int) bool {
	o.first[i].CompareAndSwap(-1, int32(label))
	if label != o.ref[i] {
		o.wrong.Add(1)
		return false
	}
	return true
}

// accuracy is the share of answered held-out inputs whose first remote
// label equals the true label, in percent.
func (o *oracle) accuracy() (float64, error) {
	answered, correct := 0, 0
	for i := range o.first {
		l := o.first[i].Load()
		if l < 0 {
			continue
		}
		answered++
		if int(l) == o.truth[i] {
			correct++
		}
	}
	if answered == 0 {
		return 0, errors.New("no held-out input was answered")
	}
	return 100 * float64(correct) / float64(answered), nil
}
