package privehd_test

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"privehd"

	"privehd/internal/chaos"
	"privehd/internal/intscore"
	"privehd/internal/offload"
)

// scrapeDeadlineRejections reads the server-side deadline-shed counter
// from the process-wide exposition, the same way an operator would.
func scrapeDeadlineRejections(t *testing.T) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	privehd.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, `privehd_server_rejections_total{reason="deadline"}`) {
			fields := strings.Fields(line)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("unparseable exposition line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestChaosClusterAcceptance is the fault-injection acceptance gate: a
// three-replica fleet behind deterministic chaos (injected latency,
// stalls, mid-frame cuts, refused accepts) serves a hedged, deadlined
// cluster client. Every request must either succeed or fail with a typed
// deadline error — transport errors mean a fault leaked past the
// resilience stack — and a server-side shed must be observable through
// the public rejections metric.
func TestChaosClusterAcceptance(t *testing.T) {
	pipe, X, _ := toyPipeline(t)
	reg := privehd.NewRegistry()
	if err := reg.Register("toy", pipe); err != nil {
		t.Fatal(err)
	}

	sctx, scancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		scancel()
		wg.Wait()
	}()
	var addrs []string
	for i := 0; i < 3; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, lis.Addr().String())
		wrapped := chaos.Wrap(lis, chaos.Config{
			Seed:        7 + int64(i)<<32, // replayable, but each replica fails independently
			Latency:     2 * time.Millisecond,
			LatencyProb: 0.3,
			Stall:       50 * time.Millisecond,
			StallProb:   0.05,
			CutProb:     0.03,
			RefuseProb:  0.03,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			privehd.ServeRegistry(sctx, wrapped, reg,
				privehd.WithMaxBatch(1024), privehd.WithServerWorkers(1))
		}()
	}

	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	cl, err := privehd.Connect(cctx,
		privehd.Target{Addrs: addrs, Model: "toy", Topology: privehd.TopologyCluster, Hedge: true})
	ccancel()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Deadlined, hedged load: every request resolves — success or a typed
	// deadline failure — and nothing surfaces a raw transport error.
	const workers, perWorker = 8, 40
	type tally struct {
		ok, deadline int
		other        []error
	}
	results := make(chan tally, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var tl tally
			for i := 0; i < perWorker; i++ {
				q := X[(w*perWorker+i)%len(X)]
				rctx, rcancel := context.WithTimeout(context.Background(), time.Second)
				_, _, err := cl.PredictContext(rctx, q)
				rcancel()
				switch {
				case err == nil:
					tl.ok++
				case errors.Is(err, privehd.ErrDeadlineExceeded),
					errors.Is(err, context.DeadlineExceeded):
					tl.deadline++
				default:
					tl.other = append(tl.other, err)
				}
			}
			results <- tl
		}(w)
	}
	var total tally
	for w := 0; w < workers; w++ {
		tl := <-results
		total.ok += tl.ok
		total.deadline += tl.deadline
		total.other = append(total.other, tl.other...)
	}
	if resolved := total.ok + total.deadline + len(total.other); resolved != workers*perWorker {
		t.Fatalf("dropped requests: %d resolved of %d", resolved, workers*perWorker)
	}
	if len(total.other) > 0 {
		t.Fatalf("%d untyped failures leaked through the resilience stack under chaos, first: %v",
			len(total.other), total.other[0])
	}
	if total.ok == 0 {
		t.Fatal("nothing succeeded under chaos")
	}
	t.Logf("chaos volley: %d ok, %d typed deadline failures", total.ok, total.deadline)

	// Server-side shed, observed through the metric an operator would
	// watch: a frame whose stamped budget cannot cover its queue drains
	// comes back with the typed deadline rejection. Chaos may cut or
	// refuse any given attempt, so retry across replicas.
	before := scrapeDeadlineRejections(t)
	shed := false
	for i := 0; i < 30 && !shed; i++ {
		shed = shedOneFrame(addrs[i%len(addrs)])
	}
	if !shed {
		t.Fatal("no replica ever shed the over-budget frame")
	}
	if after := scrapeDeadlineRejections(t); after <= before {
		t.Fatalf(`rejections{reason="deadline"} never moved: %d → %d`, before, after)
	}
}

// shedOneFrame sends one frame whose hand-stamped budget (what a real
// client writes from its context deadline) cannot cover scoring 512
// queries on a single worker, and reports whether the server shed it.
// Any chaos-induced hiccup — refused accept, cut, stall past the conn
// deadline — just returns false so the caller retries.
func shedOneFrame(addr string) bool {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := offload.WriteHello(conn, offload.Hello{Model: "toy", Dim: 512}); err != nil {
		return false
	}
	sh, err := offload.ReadServerHello(conn)
	if err != nil || sh.Code != "" {
		return false
	}
	q := make([]int8, 512)
	q[0] = 1
	req := offload.Request{ID: 1, BudgetNs: int64(100 * time.Microsecond),
		Queries: make([]offload.Query, 512)}
	for i := range req.Queries {
		req.Queries[i] = offload.Query{Packed: intscore.Split(q)}
	}
	if err := offload.WriteRequest(conn, req); err != nil {
		return false
	}
	reply, err := offload.ReadReply(conn, sh)
	if err != nil {
		return false
	}
	return reply.Code == "deadline"
}
