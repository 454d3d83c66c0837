package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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

func TestBreakerFirstFailureTripsFree(t *testing.T) {
	// The defaults must reproduce the pre-breaker contract: the first
	// failure ejects immediately, and the very next successful probe may
	// re-admit — no cooldown friction until the replica proves it flaps.
	b := newBreaker("test-first")
	now := time.Now()
	if !b.recordFailure(now) {
		t.Fatal("first failure must trip the breaker (eject-on-first-failure preserved)")
	}
	if b.currentState() != breakerOpen {
		t.Fatalf("state after trip = %d, want open", b.currentState())
	}
	if !b.ready(now) {
		t.Fatal("first open has no cooldown: a probe must be allowed immediately")
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state after ready = %d, want half-open (the probe is the trial)", b.currentState())
	}
	b.recordSuccess()
	if b.currentState() != breakerClosed {
		t.Fatalf("state after success = %d, want closed", b.currentState())
	}
}

func TestBreakerCooldownLadder(t *testing.T) {
	b := newBreaker("test-ladder")
	now := time.Now()
	b.recordFailure(now) // open #1: free
	if !b.ready(now) {
		t.Fatal("open #1 must probe immediately")
	}
	if !b.recordFailure(now) {
		t.Fatal("half-open failure must reopen")
	}
	// Each reopen doubles the probe-readmission cooldown up to the cap: a
	// replica that keeps dying right after re-admission is probed back in
	// less and less eagerly.
	want := breakerCooldownBase
	for i := 0; i < 6; i++ {
		if b.cooldown != want {
			t.Fatalf("reopen %d cooldown = %v, want %v", i+2, b.cooldown, want)
		}
		if b.ready(now) {
			t.Fatalf("reopen %d: probe admitted before the %v cooldown elapsed", i+2, want)
		}
		if !b.ready(now.Add(want)) {
			t.Fatalf("reopen %d: probe refused after the %v cooldown elapsed", i+2, want)
		}
		b.recordFailure(now)
		want *= 2
		if want > breakerCooldownMax {
			want = breakerCooldownMax
		}
	}
	if b.cooldown != breakerCooldownMax {
		t.Fatalf("ladder never capped: cooldown %v, want %v", b.cooldown, breakerCooldownMax)
	}
}

func TestBreakerStableStreakResetsLadder(t *testing.T) {
	b := newBreaker("test-streak")
	now := time.Now()
	b.recordFailure(now)
	b.ready(now)
	b.recordFailure(now) // reopen: cooldown 250ms, reopens 2
	if !b.ready(now.Add(time.Hour)) {
		t.Fatal("cooldown long past, probe must be admitted")
	}
	b.recordSuccess()
	if b.currentState() != breakerClosed {
		t.Fatalf("state after re-admission success = %d, want closed", b.currentState())
	}
	// Re-close resets the outcome window, so pre-outage failures cannot
	// instantly re-trip the error-rate condition.
	if b.wLen != 0 {
		t.Fatalf("re-close must reset the outcome window, wLen = %d", b.wLen)
	}
	for i := 1; i < breakerStableAfter; i++ {
		b.recordSuccess()
	}
	if b.reopens != 0 || b.cooldown != 0 {
		t.Fatalf("stable run must collapse the ladder: reopens %d cooldown %v", b.reopens, b.cooldown)
	}
	// After recovery, the next outage starts the ladder from the top: the
	// first open is free again.
	b.recordFailure(now)
	if !b.ready(now) {
		t.Fatal("post-recovery first open must probe immediately")
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

	// A budget of 1 retry allows exactly 2 attempts, even though 3
	// replicas are available: the shared budget, not the replica count,
	// bounds how much a sick call may burn.
	before := cmRetryBudgetExhausted.Value()
	var calls atomic.Int32
	err = cl.Do(withRetryBudget(context.Background(), 1), func(p *Pool) error {
		calls.Add(1)
		return fmt.Errorf("%w: synthetic failure", offload.ErrTransport)
	})
	if got := calls.Load(); got != 2 {
		t.Fatalf("op ran %d times under a 1-retry budget, want exactly 2", got)
	}
	if !errors.Is(err, ErrNoHealthyReplicas) {
		t.Fatalf("exhausted budget err = %v, want ErrNoHealthyReplicas", err)
	}
	if after := cmRetryBudgetExhausted.Value(); after != before+1 {
		t.Fatalf("retry_budget_exhausted moved %d→%d, want +1", before, after)
	}

	// Budget 0: the first attempt is free (it is not a retry), nothing more.
	calls.Store(0)
	_ = cl.Do(withRetryBudget(context.Background(), 0), func(p *Pool) error {
		calls.Add(1)
		return fmt.Errorf("%w: synthetic failure", offload.ErrTransport)
	})
	if got := calls.Load(); got != 1 {
		t.Fatalf("op ran %d times under a 0-retry budget, want exactly 1", got)
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

	// The hung replica is listed first: least-in-flight ties break to the
	// first address, so an idle cluster's primary attempt lands on the
	// stall and only the hedge can answer.
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp", Addrs: []string{hung, rep.addr},
		Hello:         offload.Hello{Dim: dim},
		Hedge:         &HedgePolicy{Delay: 15 * time.Millisecond},
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

func TestGoAwayDrainRacesHedgedRequests(t *testing.T) {
	// One replica drains gracefully (v5 GoAway push) while hedged,
	// retried traffic hammers the fleet: every request must still succeed
	// with the right answer, and commit-once must hold — no call observes
	// a result assembled from two racing attempts.
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
		// An aggressive fixed delay keeps hedges in flight throughout the
		// drain window, maximising the race surface.
		Hedge: &HedgePolicy{Delay: 2 * time.Millisecond},
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
