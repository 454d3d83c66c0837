package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privehd/internal/offload"
)

func TestJitterBackoffSpread(t *testing.T) {
	const d = 100 * time.Millisecond
	seen := make(map[time.Duration]bool)
	for i := 0; i < 500; i++ {
		got := jitterBackoff(d)
		if got < d/2 || got > d {
			t.Fatalf("jitterBackoff(%v) = %v, want within [%v, %v]", d, got, d/2, d)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitterBackoff produced a single value over 500 samples: no jitter at all")
	}
	if got := jitterBackoff(0); got != 0 {
		t.Fatalf("jitterBackoff(0) = %v, want 0", got)
	}
	if got := jitterBackoff(1); got != 1 {
		t.Fatalf("jitterBackoff(1) = %v, want 1", got)
	}
}

// ladderReplica returns the one replica of a probe-less cluster over an
// address nothing dials: the tests drive its cooldown ladder through
// recordFailure/recordSuccess directly.
func ladderReplica(t *testing.T, addr string) (*Cluster, *replica) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{Network: "tcp", Addrs: []string{addr}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, cl.replicas[0]
}

// ladder snapshots r's current cooldown and ejection count.
func ladder(r *replica) (time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cooldown, r.ejections
}

// backdate moves r's last ejection d into the past, as if d had elapsed
// since: the cooldown ladder measures from the ejection.
func backdate(r *replica, d time.Duration) {
	r.mu.Lock()
	r.ejectedAt = r.ejectedAt.Add(-d)
	r.mu.Unlock()
}

var errSynthetic = fmt.Errorf("%w: synthetic failure", offload.ErrTransport)

func TestReadmitFirstEjectionFree(t *testing.T) {
	// The first ejection must keep the plain-ejection contract: the first
	// failure ejects immediately, and the very next successful probe may
	// re-admit — no cooldown friction until the replica proves it flaps.
	cl, r := ladderReplica(t, "readmit-first:1")
	cl.recordFailure(r, false, errSynthetic)
	if r.isHealthy() {
		t.Fatal("first failure must eject the replica")
	}
	if cooldown, _ := ladder(r); cooldown != 0 {
		t.Fatalf("first ejection cooldown = %v, want 0", cooldown)
	}
	if !cl.recordSuccess(r, true) {
		t.Fatal("first ejection has no cooldown: a probe must re-admit immediately")
	}
	if !r.isHealthy() {
		t.Fatal("replica still ejected after the re-admitting probe")
	}
}

func TestReadmitCooldownLadder(t *testing.T) {
	cl, r := ladderReplica(t, "readmit-ladder:1")
	cl.recordFailure(r, false, errSynthetic) // ejection #1: free
	if !cl.recordSuccess(r, true) {
		t.Fatal("ejection #1 must re-admit on the first probe")
	}
	cl.recordFailure(r, false, errSynthetic)
	if r.isHealthy() {
		t.Fatal("a failure right after re-admission must eject again")
	}
	// Each later ejection doubles the probe re-admission cooldown up to
	// the cap: a replica that keeps dying right after re-admission is
	// probed back in less and less eagerly.
	want := readmitCooldownBase
	for i := 0; i < 6; i++ {
		if cooldown, _ := ladder(r); cooldown != want {
			t.Fatalf("ejection %d cooldown = %v, want %v", i+2, cooldown, want)
		}
		if cl.recordSuccess(r, true) {
			t.Fatalf("ejection %d: probe re-admitted before the %v cooldown elapsed", i+2, want)
		}
		backdate(r, want)
		if !cl.recordSuccess(r, true) {
			t.Fatalf("ejection %d: probe refused after the %v cooldown elapsed", i+2, want)
		}
		cl.recordFailure(r, false, errSynthetic)
		want = min(2*want, readmitCooldownMax)
	}
	if cooldown, _ := ladder(r); cooldown != readmitCooldownMax {
		t.Fatalf("ladder never capped: cooldown %v, want %v", cooldown, readmitCooldownMax)
	}
	// A successful request is never gated, whatever the cooldown.
	if !cl.recordSuccess(r, false) {
		t.Fatal("a successful request must re-admit inside the cooldown")
	}
}

func TestReadmitStableStreakResetsLadder(t *testing.T) {
	cl, r := ladderReplica(t, "readmit-streak:1")
	cl.recordFailure(r, false, errSynthetic)
	cl.recordSuccess(r, true)
	cl.recordFailure(r, false, errSynthetic) // ejection #2: cooldown 250ms
	backdate(r, time.Hour)
	if !cl.recordSuccess(r, true) {
		t.Fatal("cooldown long past, probe must re-admit")
	}
	if !r.isHealthy() {
		t.Fatal("replica still ejected after the re-admitting probe")
	}
	// The probe was success 1 of the stable run; one short of the run the
	// ladder must still stand.
	for i := 2; i < readmitStableAfter; i++ {
		cl.recordSuccess(r, false)
	}
	if cooldown, ejections := ladder(r); ejections != 2 || cooldown != readmitCooldownBase {
		t.Fatalf("ladder reset before %d successes: ejections %d cooldown %v",
			readmitStableAfter, ejections, cooldown)
	}
	cl.recordSuccess(r, false)
	if cooldown, ejections := ladder(r); ejections != 0 || cooldown != 0 {
		t.Fatalf("stable run must reset the ladder: ejections %d cooldown %v", ejections, cooldown)
	}
	// After recovery, the next outage starts the ladder from the top: the
	// first ejection is free again.
	cl.recordFailure(r, false, errSynthetic)
	if !cl.recordSuccess(r, true) {
		t.Fatal("post-recovery first ejection must re-admit on the first probe")
	}
}

func TestReadmitThroughProbeAndTraffic(t *testing.T) {
	// The ladder wired into the cluster: traffic and Cluster.probe eject
	// a real replica, probes honour the cooldown, and a request that
	// succeeds re-admits at once.
	const dim = 16
	rep := startReplica(t, dim)
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: []string{rep.addr},
		Hello:         offload.Hello{Dim: dim},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r := cl.replicas[0]
	q := classQuery(dim, 1)
	classify := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, err := cl.Classify(ctx, q)
		return err
	}
	restart := func() {
		t.Helper()
		if err := rep.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	readmitted := func() uint64 { return cmTransitions.With(rep.addr, "readmitted").Value() }
	if err := classify(); err != nil {
		t.Fatal(err)
	}

	// Ejection #1, by traffic: free, so the next probe re-admits.
	rep.Kill()
	if _, _, err := cl.Classify(context.Background(), q); err == nil {
		t.Fatal("classify against a killed replica succeeded")
	}
	if r.isHealthy() {
		t.Fatal("a failed request must eject the replica")
	}
	restart()
	cl.probe(r)
	if !r.isHealthy() {
		t.Fatal("ejection #1 has no cooldown: the probe must re-admit")
	}

	// Ejection #2, by probe: a probe inside the cooldown leaves it out.
	rep.Kill()
	cl.probe(r)
	if r.isHealthy() {
		t.Fatal("a failed probe must eject the replica")
	}
	if cooldown, _ := ladder(r); cooldown != readmitCooldownBase {
		t.Fatalf("ejection #2 cooldown = %v, want %v", cooldown, readmitCooldownBase)
	}
	restart()
	before := readmitted()
	cl.probe(r)
	if r.isHealthy() || readmitted() != before {
		t.Fatal("a probe inside the cooldown re-admitted the replica")
	}
	// A probe after the cooldown re-admits it.
	backdate(r, readmitCooldownBase)
	cl.probe(r)
	if !r.isHealthy() || readmitted() != before+1 {
		t.Fatal("a probe after the cooldown did not re-admit the replica")
	}

	// Ejection #3: a successful request inside the cooldown re-admits at
	// once, where a probe still may not.
	rep.Kill()
	cl.probe(r)
	restart()
	cl.probe(r)
	if r.isHealthy() {
		t.Fatal("a probe inside the cooldown re-admitted the replica")
	}
	if cooldown, _ := ladder(r); cooldown != 2*readmitCooldownBase {
		t.Fatalf("ejection #3 cooldown = %v, want %v", cooldown, 2*readmitCooldownBase)
	}
	if err := classify(); err != nil {
		t.Fatalf("request to the restarted replica: %v", err)
	}
	if !r.isHealthy() || readmitted() != before+2 {
		t.Fatal("a successful request did not re-admit the replica inside its cooldown")
	}
}

func TestRetryBudgetBoundsAttempts(t *testing.T) {
	const dim = 16
	var addrs []string
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim), startReplica(t, dim)}
	for _, r := range reps {
		addrs = append(addrs, r.addr)
	}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: addrs,
		Hello:         offload.Hello{Dim: dim},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The default allowance is four failovers per replica: 3 replicas
	// that always fail mean exactly 1 + 4×3 = 13 attempts, then the call
	// stops with ErrNoHealthyReplicas instead of sweeping forever.
	before := cmRetryBudgetExhausted.Value()
	var calls atomic.Int32
	_, err = do(context.Background(), cl, func(context.Context, *offload.Client) (struct{}, error) {
		calls.Add(1)
		return struct{}{}, fmt.Errorf("%w: synthetic failure", offload.ErrTransport)
	})
	if got := calls.Load(); got != 13 {
		t.Fatalf("op ran %d times against 3 failing replicas, want exactly 13", got)
	}
	if !errors.Is(err, ErrNoHealthyReplicas) {
		t.Fatalf("exhausted allowance err = %v, want ErrNoHealthyReplicas", err)
	}
	if after := cmRetryBudgetExhausted.Value(); after != before+1 {
		t.Fatalf("retry_budget_exhausted moved %d→%d, want +1", before, after)
	}
}

// TestClusterRidesOutFleetOutage kills every replica at once and brings
// them back on the same addresses 300 ms later, under hedged callers with
// 2 s deadlines. While the whole fleet is down every pool fast-fails from
// inside its dial-backoff window; a call must wait out the nearest window
// and re-sweep rather than fail with most of its deadline unspent, so
// every call of the run succeeds. A failure lists every failed call with
// when it started (from the kill) and how long it took, so a call that
// ran out its 2 s deadline on a starved runner reads differently from a
// fast failover fault.
func TestClusterRidesOutFleetOutage(t *testing.T) {
	const (
		dim     = 16
		callers = 8
		outage  = 300 * time.Millisecond
	)
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim), startReplica(t, dim)}
	var addrs []string
	for _, r := range reps {
		addrs = append(addrs, r.addr)
	}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: addrs,
		Hello: offload.Hello{Dim: dim},
		Hedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	classify := func(class int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		label, _, err := cl.Classify(ctx, classQuery(dim, class))
		if err == nil && label != class {
			err = fmt.Errorf("label %d, want %d", label, class)
		}
		return err
	}
	for i := 0; i < 3*len(reps); i++ {
		if err := classify(i % 2); err != nil {
			t.Fatalf("warm-up call %d: %v", i, err)
		}
	}

	stop := make(chan struct{})
	type failure struct {
		start time.Time
		took  time.Duration
		err   error
	}
	var (
		wg       sync.WaitGroup
		calls    atomic.Int64
		errMu    sync.Mutex
		failures []failure
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				calls.Add(1)
				start := time.Now()
				if err := classify(class); err != nil {
					errMu.Lock()
					failures = append(failures, failure{start, time.Since(start), err})
					errMu.Unlock()
				}
			}
		}(c % 2)
	}

	time.Sleep(50 * time.Millisecond)
	killed := time.Now()
	for _, r := range reps {
		r.Kill()
	}
	time.Sleep(outage)
	for _, r := range reps {
		if err := r.Restart(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("restart %s: %v", r.addr, err)
		}
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(failures) > 0 {
		var b strings.Builder
		for _, f := range failures {
			fmt.Fprintf(&b, "\n  started %v after the kill, failed after %v: %v", f.start.Sub(killed), f.took, f.err)
		}
		t.Fatalf("%d of %d calls failed through a %v fleet outage:%s", len(failures), calls.Load(), outage, b.String())
	}
}

// startHungServer speaks the offload handshake and then goes silent:
// every request frame is swallowed and never answered — the shape of a
// replica whose accept loop lives but whose serve loop is wedged. It is
// indistinguishable from healthy to a dial-and-handshake probe; only an
// in-band ping or a hedged race gets callers past it.
func startHungServer(t *testing.T, dim int) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				if _, err := offload.ReadHello(conn); err != nil {
					return
				}
				sh := offload.ServerHello{
					Version: offload.ProtocolVersion, Dim: dim, Classes: 2,
					MaxBatch: offload.DefaultMaxBatch, MinSymbol: offload.MinSymbol, MaxSymbol: offload.MaxSymbol,
				}
				if offload.WriteServerHello(conn, sh) != nil {
					return
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return lis.Addr().String()
}

func TestHedgeWinsOnStalledReplica(t *testing.T) {
	const dim = 16
	hung := startHungServer(t, dim)
	rep := startReplica(t, dim)

	// Every call starts idle, so the rotating tie-break starts calls on the
	// stalled replica in turn; those primaries hang and only the hedge can
	// answer.
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: []string{hung, rep.addr},
		Hello:         offload.Hello{Dim: dim},
		Hedge:         true,
		Pool:          PoolConfig{IOTimeout: 2 * time.Second},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	wonBefore := cmHedges.With("won").Value()
	q := classQuery(dim, 1)
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		label, _, err := cl.Classify(ctx, q)
		cancel()
		if err != nil {
			t.Fatalf("call %d: %v (the hedge should have rescued the stalled primary)", i, err)
		}
		if label != 1 {
			t.Fatalf("call %d: label %d, want 1", i, label)
		}
	}
	if won := cmHedges.With("won").Value(); won <= wonBefore {
		t.Fatalf("hedges_total{outcome=won} never moved (%d): every call beat the stall without hedging?", won)
	}
}

func TestPoolPingDropsDeadConn(t *testing.T) {
	const dim = 4
	hung := startHungServer(t, dim)
	p := NewPool(PoolConfig{
		Network: "tcp", Addr: hung,
		Hello:        offload.Hello{Dim: dim},
		PingInterval: 50 * time.Millisecond,
		IOTimeout:    100 * time.Millisecond,
	})
	defer p.Close()

	failedBefore := cmPoolPings.With(hung, "failed").Value()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Hello establishes a pooled connection; the hung server handshakes
	// fine, so the conn looks healthy until a ping proves its serve loop
	// is gone.
	if _, err := p.Hello(ctx); err != nil {
		t.Fatalf("Hello against the hung server's live handshake: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cmPoolPings.With(hung, "failed").Value() > failedBefore && p.Stats().Conns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ping never dropped the dead conn: pings{failed} %d→%d, conns %d",
				failedBefore, cmPoolPings.With(hung, "failed").Value(), p.Stats().Conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPoolPingKeepsLiveConn(t *testing.T) {
	const dim = 16
	rep := startReplica(t, dim)
	p := NewPool(PoolConfig{
		Network: "tcp", Addr: rep.addr,
		Hello:        offload.Hello{Dim: dim},
		PingInterval: 40 * time.Millisecond,
	})
	defer p.Close()

	okBefore := cmPoolPings.With(rep.addr, "ok").Value()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Hello(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cmPoolPings.With(rep.addr, "ok").Value() <= okBefore {
		if time.Now().After(deadline) {
			t.Fatal("no successful idle ping was ever recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := p.Stats().Conns; got != 1 {
		t.Fatalf("a passing ping must keep the conn pooled, Conns = %d", got)
	}
}

func TestPoolUpkeepPingsThenReaps(t *testing.T) {
	// One upkeep goroutine serves both jobs: an idle connection is pinged
	// while it lingers, yet pings are not use, so it is still reaped once
	// it has sat idle past IdleTimeout.
	const dim = 16
	rep := startReplica(t, dim)
	p := NewPool(PoolConfig{
		Network: "tcp", Addr: rep.addr,
		Hello:        offload.Hello{Dim: dim},
		PingInterval: 20 * time.Millisecond,
		IdleTimeout:  300 * time.Millisecond,
	})
	defer p.Close()

	okBefore := cmPoolPings.With(rep.addr, "ok").Value()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Hello(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pinged idle conn never reaped: %+v", p.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cmPoolPings.With(rep.addr, "ok").Value() <= okBefore {
		t.Fatal("the idle conn was reaped without ever being pinged")
	}
}

func TestGoAwayDrainRacesHedgedRequests(t *testing.T) {
	// One replica drains gracefully (v5 GoAway push) while hedged,
	// retried traffic hammers the fleet: every request must still succeed
	// with the right answer, and each call must return one attempt's
	// result whole — never a label and scores taken from two racing
	// attempts.
	const dim = 16
	type member struct {
		addr string
		srv  *offload.Server
		done chan error
	}
	var members []*member
	for i := 0; i < 3; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := offload.NewServer(testModel(dim), offload.WithWorkers(2))
		done := make(chan error, 1)
		go func() { done <- srv.Serve(context.Background(), lis) }()
		members = append(members, &member{addr: lis.Addr().String(), srv: srv, done: done})
	}
	defer func() {
		for _, m := range members {
			m.srv.Close()
			<-m.done
		}
	}()

	var addrs []string
	for _, m := range members {
		addrs = append(addrs, m.addr)
	}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: addrs,
		Hello: offload.Hello{Dim: dim},
		// Loopback latency keeps the adaptive delay at its 1ms floor, so
		// hedges stay in flight throughout the drain window, maximising
		// the race surface.
		Hedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 6
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var served atomic.Int64
	for w := 0; w < workers; w++ {
		want := w % 2
		go func() {
			q := classQuery(dim, want)
			for {
				select {
				case <-stop:
					errCh <- nil
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				label, scores, err := cl.Classify(ctx, q)
				cancel()
				if err != nil {
					errCh <- fmt.Errorf("classify during drain: %w", err)
					return
				}
				if label != want || len(scores) != 2 {
					errCh <- fmt.Errorf("corrupted result during drain: label %d (want %d), %d scores", label, want, len(scores))
					return
				}
				served.Add(1)
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let load reach steady state first
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := members[0].srv.Shutdown(sctx); err != nil {
		t.Errorf("graceful shutdown under load: %v", err)
	}
	scancel()
	time.Sleep(100 * time.Millisecond) // keep racing after the drain lands
	close(stop)
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}
	if served.Load() == 0 {
		t.Fatal("no requests completed during the drain window")
	}
}
