package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privehd/internal/hdc"
	"privehd/internal/intscore"
	"privehd/internal/offload"
	"privehd/internal/registry"
)

// testModel returns a 2-class model of the given dimensionality whose
// class 0 vector is all +1 and class 1 all −1.
func testModel(dim int) *hdc.Model {
	m := hdc.NewModel(2, dim)
	pos := make([]float64, dim)
	neg := make([]float64, dim)
	for i := range pos {
		pos[i] = 1
		neg[i] = -1
	}
	m.Add(0, pos)
	m.Add(1, neg)
	return m
}

func classQuery(dim, class int) offload.Query {
	q := make([]int8, dim)
	v := int8(1)
	if class == 1 {
		v = -1
	}
	for i := range q {
		q[i] = v
	}
	return offload.Query{Packed: intscore.Split(q)}
}

// testReplica is one loopback server that can be killed and restarted on
// the same address.
type testReplica struct {
	t    *testing.T
	dim  int
	addr string

	mu   sync.Mutex
	lis  net.Listener
	srv  *offload.Server
	done chan error
}

// startReplica serves testModel(dim) on a fresh loopback port.
func startReplica(t *testing.T, dim int) *testReplica {
	t.Helper()
	r := &testReplica{t: t, dim: dim}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = lis.Addr().String()
	r.serveOn(lis)
	t.Cleanup(r.Kill)
	return r
}

func (r *testReplica) serveOn(lis net.Listener) {
	srv := offload.NewServer(testModel(r.dim), offload.WithWorkers(2))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	r.mu.Lock()
	r.lis, r.srv, r.done = lis, srv, done
	r.mu.Unlock()
}

// Kill closes the replica's listener and every connection immediately.
func (r *testReplica) Kill() {
	r.mu.Lock()
	srv, done := r.srv, r.done
	r.srv = nil
	r.mu.Unlock()
	if srv == nil {
		return
	}
	srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		r.t.Error("replica did not stop")
	}
}

// Restart brings the replica back on its original address.
func (r *testReplica) Restart() error {
	lis, err := net.Listen("tcp", r.addr)
	if err != nil {
		return err
	}
	r.serveOn(lis)
	return nil
}

func (r *testReplica) Served() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.srv == nil {
		return 0
	}
	return r.srv.Served()
}

func TestPoolServesConcurrentCallers(t *testing.T) {
	const dim = 64
	rep := startReplica(t, dim)
	p := NewPool(PoolConfig{Network: "tcp", Addr: rep.addr, Hello: offload.Hello{Dim: dim}, Size: 3})
	defer p.Close()

	const callers, rounds = 24, 10
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		want := i % 2
		go func() {
			q := classQuery(dim, want)
			for r := 0; r < rounds; r++ {
				label, _, err := p.Classify(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if label != want {
					errs <- fmt.Errorf("want label %d, got %d", want, label)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Conns < 1 || st.Conns > 3 {
		t.Errorf("pool kept %d conns, want 1..3", st.Conns)
	}
	if rep.Served() != callers*rounds {
		t.Errorf("served %d, want %d", rep.Served(), callers*rounds)
	}
}

func TestPoolRedialsAfterConnLossWithBackoff(t *testing.T) {
	const dim = 16
	rep := startReplica(t, dim)
	p := NewPool(PoolConfig{
		Network: "tcp", Addr: rep.addr, Hello: offload.Hello{Dim: dim},
		MaxBackoff: 200 * time.Millisecond,
	})
	defer p.Close()

	if _, _, err := p.Classify(context.Background(), classQuery(dim, 0)); err != nil {
		t.Fatal(err)
	}
	rep.Kill()
	// The in-pool retry hits the dead server: first a transport error on
	// the cached conn, then a failed redial. Either way the error is
	// typed retryable.
	_, _, err := p.Classify(context.Background(), classQuery(dim, 0))
	if !errors.Is(err, offload.ErrTransport) {
		t.Fatalf("dead server: err = %v, want ErrTransport", err)
	}
	// While down, dial attempts back off: a quick probe of the error text
	// is not needed — just verify calls keep failing fast and typed.
	start := time.Now()
	_, _, err = p.Classify(context.Background(), classQuery(dim, 0))
	if !errors.Is(err, offload.ErrTransport) {
		t.Fatalf("backoff window: err = %v, want ErrTransport", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("failing call did not fail fast during backoff")
	}
	// Server returns; after the backoff window traffic recovers on its own.
	if err := rep.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		label, _, err := p.Classify(context.Background(), classQuery(dim, 1))
		if err == nil {
			if label != 1 {
				t.Fatalf("label = %d after recovery", label)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered after server restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := p.Stats(); st.Dials < 2 {
		t.Errorf("Dials = %d, want ≥ 2 (a redial after the loss)", st.Dials)
	}
}

// TestPoolRetriesOnlyStandalone pins where a transport failure is
// retried: a standalone pool tries an operation twice, while a cluster's
// pool tries once and leaves the retry to the cluster's failover loop.
func TestPoolRetriesOnlyStandalone(t *testing.T) {
	const dim = 16
	rep := startReplica(t, dim)
	cfg := PoolConfig{Network: "tcp", Addr: rep.addr, Hello: offload.Hello{Dim: dim}}
	for _, tc := range []struct {
		name string
		p    *Pool
		want int
	}{
		{"standalone", NewPool(cfg), 2},
		{"cluster", newPool(cfg, 1), 1},
	} {
		defer tc.p.Close()
		calls := 0
		_, err := call(context.Background(), tc.p, func(context.Context, *offload.Client) (struct{}, error) {
			calls++
			return struct{}{}, fmt.Errorf("%w: synthetic failure", offload.ErrTransport)
		})
		if !errors.Is(err, offload.ErrTransport) {
			t.Fatalf("%s: err = %v, want ErrTransport", tc.name, err)
		}
		if calls != tc.want {
			t.Fatalf("%s pool ran the op %d times, want %d", tc.name, calls, tc.want)
		}
	}
}

func TestPoolReapsIdleConns(t *testing.T) {
	const dim = 16
	rep := startReplica(t, dim)
	p := NewPool(PoolConfig{
		Network: "tcp", Addr: rep.addr, Hello: offload.Hello{Dim: dim},
		Size: 4, IdleTimeout: 50 * time.Millisecond,
	})
	defer p.Close()
	if _, _, err := p.Classify(context.Background(), classQuery(dim, 0)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Conns == 0 {
		t.Fatal("no conn after a classify")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle conns never reaped: %+v", p.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The pool still works after reaping down to zero.
	if _, _, err := p.Classify(context.Background(), classQuery(dim, 1)); err != nil {
		t.Fatalf("classify after reap: %v", err)
	}
}

func TestPoolSurfacesTypedProtocolErrors(t *testing.T) {
	// Protocol rejections must come through the pool untouched and
	// unretried: unknown model at the handshake.
	reg := registry.New()
	if _, err := reg.Register("only", testModel(8), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := offload.NewRegistryServer(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	defer func() { srv.Close(); <-done }()

	p := NewPool(PoolConfig{
		Network: "tcp", Addr: lis.Addr().String(),
		Hello: offload.Hello{Dim: 8, Model: "ghost"},
	})
	defer p.Close()
	_, _, err = p.Classify(context.Background(), classQuery(8, 0))
	if !errors.Is(err, offload.ErrUnknownModel) {
		t.Errorf("ghost model through pool: err = %v, want ErrUnknownModel", err)
	}
	if errors.Is(err, offload.ErrTransport) {
		t.Errorf("protocol rejection classified as transport failure: %v", err)
	}
}

// TestClusterFailoverUnderConcurrentLoad is the subsystem's acceptance
// test: ≥64 concurrent callers drive a 3-replica cluster while one
// replica is killed mid-run. Every request must either succeed (failover)
// or fail with a typed error — no hangs, no lost or misrouted responses.
// (Out-of-order pipelined completion is a server property, pinned by
// offload's TestPipelinedRepliesOutOfOrder.)
func TestClusterFailoverUnderConcurrentLoad(t *testing.T) {
	const dim = 256
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim), startReplica(t, dim)}
	addrs := []string{reps[0].addr, reps[1].addr, reps[2].addr}

	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: addrs, Hello: offload.Hello{Dim: dim},
		Pool:          PoolConfig{Size: 2, IOTimeout: 5 * time.Second},
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const callers = 64
	const rounds = 24
	var (
		wg        sync.WaitGroup
		succeeded atomic.Int64
		typedErrs atomic.Int64
	)
	errs := make(chan error, callers)
	killAt := make(chan struct{})
	var killOnce sync.Once
	var total atomic.Int64
	for i := 0; i < callers; i++ {
		want := i % 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := classQuery(dim, want)
			for r := 0; r < rounds; r++ {
				label, scores, err := cl.Classify(context.Background(), q)
				switch {
				case err == nil:
					if label != want || len(scores) != 2 {
						errs <- fmt.Errorf("misrouted response: want label %d, got %d (scores %v)", want, label, scores)
						return
					}
					succeeded.Add(1)
				case errors.Is(err, ErrNoHealthyReplicas) || errors.Is(err, offload.ErrTransport):
					// Typed, retryable failure — acceptable, never a hang.
					typedErrs.Add(1)
				default:
					errs <- fmt.Errorf("untyped error: %v", err)
					return
				}
				if total.Add(1) == callers*rounds/3 {
					killOnce.Do(func() { close(killAt) })
				}
			}
			errs <- nil
		}()
	}
	// Kill replica 2 once a third of the traffic has flowed.
	go func() {
		<-killAt
		reps[2].Kill()
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("cluster requests hung")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := succeeded.Load() + typedErrs.Load(); got != callers*rounds {
		t.Fatalf("accounted %d of %d requests", got, callers*rounds)
	}
	if succeeded.Load() < callers*rounds*9/10 {
		t.Errorf("only %d/%d requests succeeded via failover", succeeded.Load(), callers*rounds)
	}
	t.Logf("%d succeeded, %d typed transport failures", succeeded.Load(), typedErrs.Load())

	// The dead replica is ejected...
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts := cl.Replicas()
		if !sts[2].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed replica never ejected: %+v", sts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...and the survivors carried the load.
	if reps[0].Served()+reps[1].Served() == 0 {
		t.Error("surviving replicas served nothing")
	}

	// The killed replica comes back and is re-admitted by the prober.
	if err := reps[2].Restart(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if cl.Replicas()[2].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never re-admitted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pickCluster is a cluster over fake replicas for unit tests of pick: each
// replica's pool holds one connection carrying loads[i] operations, and
// replica i is healthy unless ejected[i].
func pickCluster(loads []int, ejected ...int) *Cluster {
	cl := &Cluster{}
	for i, load := range loads {
		cl.replicas = append(cl.replicas, &replica{
			addr:    fmt.Sprintf("r%d", i),
			pool:    &Pool{conns: []*poolConn{{inflight: load}}},
			healthy: true,
		})
	}
	for _, i := range ejected {
		cl.replicas[i].healthy = false
	}
	return cl
}

func TestPickRule(t *testing.T) {
	t.Run("least in flight wins whatever the rotation", func(t *testing.T) {
		cl := pickCluster([]int{3, 1, 2, 1})
		for i := 0; i < 12; i++ {
			got := cl.pick(nil)
			if got != cl.replicas[1] && got != cl.replicas[3] {
				t.Fatalf("pick %d chose %s, want a least-loaded replica (r1 or r3)", i, got.addr)
			}
		}
		cl = pickCluster([]int{3, 1, 2})
		for i := 0; i < 9; i++ {
			if got := cl.pick(nil); got != cl.replicas[1] {
				t.Fatalf("pick %d chose %s, want r1", i, got.addr)
			}
		}
	})
	t.Run("ties rotate over every replica", func(t *testing.T) {
		cl := pickCluster([]int{2, 2, 2})
		counts := map[*replica]int{}
		for i := 0; i < 30; i++ {
			counts[cl.pick(nil)]++
		}
		for _, r := range cl.replicas {
			if counts[r] != 10 {
				t.Fatalf("30 tied picks: %s chosen %d times, want 10 (counts %v)", r.addr, counts[r], counts)
			}
		}
	})
	t.Run("ejected only when no healthy untried replica is left", func(t *testing.T) {
		// r0 is ejected and idle; the healthy replicas are busier.
		cl := pickCluster([]int{0, 5, 7}, 0)
		for i := 0; i < 6; i++ {
			if got := cl.pick(nil); got != cl.replicas[1] {
				t.Fatalf("pick %d chose %s, want the healthy least-loaded r1", i, got.addr)
			}
			if got := cl.pick(map[*replica]bool{cl.replicas[1]: true}); got != cl.replicas[2] {
				t.Fatalf("pick %d with r1 tried chose %s, want healthy r2", i, got.addr)
			}
			if got := cl.pick(map[*replica]bool{cl.replicas[1]: true, cl.replicas[2]: true}); got != cl.replicas[0] {
				t.Fatalf("pick %d with every healthy replica tried chose %v, want ejected r0", i, got)
			}
		}
		// With every replica ejected the least-loaded one still wins.
		cl = pickCluster([]int{4, 2, 3}, 0, 1, 2)
		for i := 0; i < 6; i++ {
			if got := cl.pick(nil); got != cl.replicas[1] {
				t.Fatalf("all ejected: pick %d chose %s, want r1", i, got.addr)
			}
		}
	})
	t.Run("tried replicas are never returned", func(t *testing.T) {
		cl := pickCluster([]int{1, 0, 2, 0}, 2)
		for mask := 0; mask < 1<<len(cl.replicas); mask++ {
			tried := map[*replica]bool{}
			for i, r := range cl.replicas {
				if mask&(1<<i) != 0 {
					tried[r] = true
				}
			}
			for rot := 0; rot < len(cl.replicas); rot++ {
				got := cl.pick(tried)
				if len(tried) == len(cl.replicas) {
					if got != nil {
						t.Fatalf("every replica tried, pick returned %s", got.addr)
					}
					continue
				}
				if got == nil || tried[got] {
					t.Fatalf("tried mask %04b: pick returned %v", mask, got)
				}
			}
		}
	})
}

func TestClusterBalancesAcrossReplicas(t *testing.T) {
	// Sequential calls on an idle fleet tie at zero in flight every time,
	// so the rotating tie-break alone spreads them: exactly evenly.
	const dim = 32
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim), startReplica(t, dim)}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp",
		Addrs:   []string{reps[0].addr, reps[1].addr, reps[2].addr},
		Hello:   offload.Hello{Dim: dim},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 60
	for i := 0; i < n; i++ {
		if _, _, err := cl.Classify(context.Background(), classQuery(dim, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range reps {
		if got := r.Served(); got != n/len(reps) {
			t.Errorf("replica %d served %d of %d sequential calls, want %d", i, got, n, n/len(reps))
		}
	}
	if got := reps[0].Served() + reps[1].Served() + reps[2].Served(); got != n {
		t.Errorf("served %d total, want %d", got, n)
	}
}

func TestClusterSurfacesTypedProtocolErrors(t *testing.T) {
	// Unknown model through a cluster: the rejection comes from a live
	// server and must surface typed, without marking replicas unhealthy.
	const dim = 16
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim)}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp",
		Addrs:   []string{reps[0].addr, reps[1].addr},
		Hello:   offload.Hello{Dim: dim, Model: "ghost"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, err = cl.Classify(context.Background(), classQuery(dim, 0))
	if !errors.Is(err, offload.ErrUnknownModel) {
		t.Errorf("ghost model through cluster: err = %v, want ErrUnknownModel", err)
	}
	for i, st := range cl.Replicas() {
		if !st.Healthy {
			t.Errorf("replica %d ejected by a protocol rejection", i)
		}
	}
}

func TestClusterListModels(t *testing.T) {
	const dim = 16
	rep := startReplica(t, dim)
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: []string{rep.addr}, Hello: offload.Hello{Dim: dim},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	models, err := cl.ListModels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != offload.DefaultModelName || !models[0].Default {
		t.Errorf("listing = %+v", models)
	}
	if models[0].Dim != dim || models[0].Classes != 2 {
		t.Errorf("listing geometry = %+v", models[0])
	}
}

func TestClusterRequiresAddrs(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Network: "tcp"}); err == nil {
		t.Error("empty address list should be rejected")
	}
}

func TestClusterAllReplicasDownTypedError(t *testing.T) {
	const dim = 16
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim)}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp",
		Addrs:   []string{reps[0].addr, reps[1].addr},
		Hello:   offload.Hello{Dim: dim},
		Pool:    PoolConfig{DialTimeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Classify(context.Background(), classQuery(dim, 0)); err != nil {
		t.Fatal(err)
	}
	reps[0].Kill()
	reps[1].Kill()
	_, _, err = cl.Classify(context.Background(), classQuery(dim, 0))
	if !errors.Is(err, ErrNoHealthyReplicas) {
		t.Errorf("dead cluster: err = %v, want ErrNoHealthyReplicas", err)
	}
	if !errors.Is(err, offload.ErrTransport) {
		t.Errorf("ErrNoHealthyReplicas should wrap ErrTransport, got %v", err)
	}
}
