package offload

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"privehd/internal/hdc"
	"privehd/internal/intscore"
)

// manyClassModel is slow enough that a large batch's scoring visibly outlasts a
// millisecond-scale budget on one worker — the deterministic trigger for
// queued-work shedding.
func manyClassModel() *hdc.Model {
	const dim, classes = 4096, 64
	m := hdc.NewModel(classes, dim)
	v := make([]float64, dim)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	for c := 0; c < classes; c++ {
		m.Add(c, v)
	}
	return m
}

func TestDeadlineExpiredBeforeSend(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := c.ClassifyContext(ctx, asQuery([]float64{1, 0, 0, 0}))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired-before-send err = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Fatal("deadline errors must not wrap ErrTransport: retrying out-of-time work wastes capacity")
	}
}

func TestServerShedsExpiredQueuedFrame(t *testing.T) {
	addr, _, cleanup := startServer(t, manyClassModel(), WithMaxBatch(1024), WithWorkers(1))
	defer cleanup()
	before := mRejections.With(codeDeadline).Value()

	conn, enc, dec := rawHandshake(t, addr, Hello{Dim: 4096})
	defer conn.Close()
	// 512 queries × (64 classes · 4096 dims) on one worker takes tens of
	// milliseconds; a 1ms budget must expire while later tasks still sit
	// in the scoring queue, so the frame comes back shed, not scored.
	q := make([]float64, 4096)
	q[0] = 1
	req := Request{BudgetNs: int64(time.Millisecond), Queries: make([]Query, 512)}
	for i := range req.Queries {
		req.Queries[i] = Query{Vector: q}
	}
	if err := enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Code != codeDeadline {
		t.Fatalf("reply code = %q, want %q", reply.Code, codeDeadline)
	}
	if got := codeError(reply.Code, reply.Detail); !errors.Is(got, ErrDeadlineExceeded) {
		t.Fatalf("shed reply decodes to %v, want ErrDeadlineExceeded", got)
	}
	if after := mRejections.With(codeDeadline).Value(); after != before+1 {
		t.Fatalf("rejections{reason=deadline} moved %d→%d, want +1", before, after)
	}
}

func TestServerShedsExpiredAtEntry(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	conn, enc, dec := rawHandshake(t, addr, Hello{Dim: 4})
	defer conn.Close()
	// A 1ns budget is over by the time the server even looks at the
	// frame: the pre-dispatch check sheds it without queueing any task.
	req := Request{BudgetNs: 1, Queries: []Query{{Vector: []float64{1, 0, 0, 0}}}}
	if err := enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Code != codeDeadline {
		t.Fatalf("reply code = %q, want %q", reply.Code, codeDeadline)
	}
}

func TestClassifyContextCancelIsTransport(t *testing.T) {
	// A plain cancellation (no deadline) is a hedge-loser/caller-abort
	// signal: the work may be fine elsewhere, so it stays retryable.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	addr, _, cleanup := startServer(t, manyClassModel(), WithMaxBatch(1024), WithWorkers(1))
	defer cleanup()
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	q := make([][]float64, 512)
	for i := range q {
		q[i] = make([]float64, 4096)
		q[i][0] = 1
	}
	_, err = c.ClassifyBatchScoresContext(ctx, asQueries(q))
	if err == nil {
		t.Skip("batch finished before the cancel landed")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("canceled wait err = %v, want ErrTransport-wrapped", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("plain cancellation must not read as a deadline: %v", err)
	}
}

func TestClassifyContextNoDeadlineUnchanged(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	label, scores, err := c.ClassifyContext(context.Background(), asQuery([]float64{2, 1, 0, 0}))
	if err != nil || label != 0 || len(scores) != 2 {
		t.Fatalf("ClassifyContext(Background) = %d, %v, %v", label, scores, err)
	}
}

func TestPing(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping on live server: %v", err)
	}
	c.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("Ping on closed client should fail")
	}
}

// TestPingSurfacesBadOpRefusal fakes a server that refuses the ping op
// with codeBadOp. Every v6 server implements OpPing, so the refusal is no
// proof of a healthy serve loop: Ping must return it typed.
func TestPingSurfacesBadOpRefusal(t *testing.T) {
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
		fakeServeBadOpPing(conn)
	}()
	c, err := Dial(context.Background(), "tcp", lis.Addr().String(), Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("Ping refused with codeBadOp = %v, want ErrUnsupportedOp", err)
	}
	if c.Err() != nil {
		t.Fatalf("a typed refusal broke the connection: %v", c.Err())
	}
}

// fakeServeBadOpPing speaks just enough of the server side of the wire
// to handshake and then reject every ping frame with codeBadOp.
func fakeServeBadOpPing(conn net.Conn) {
	if _, err := ReadHello(conn); err != nil {
		return
	}
	sh := ServerHello{
		Version: ProtocolVersion, Dim: 4, Classes: 2, MaxBatch: DefaultMaxBatch,
		MinSymbol: MinSymbol, MaxSymbol: MaxSymbol,
	}
	if WriteServerHello(conn, sh) != nil {
		return
	}
	for {
		req, err := readRequest(conn, requestCap(sh.Dim, sh.MaxBatch))
		if err != nil {
			return
		}
		reply := Reply{ID: req.ID}
		if req.Op == OpPing {
			reply.Code = codeBadOp
			reply.Detail = "op 3 (this server speaks v6)"
		}
		if writeReply(conn, &reply) != nil {
			return
		}
	}
}

func TestStampBudgetSemantics(t *testing.T) {
	var req Request
	if err := stampBudget(context.Background(), &req); err != nil {
		t.Fatalf("no-deadline ctx: %v", err)
	}
	if req.BudgetNs != 0 {
		t.Fatalf("no-deadline ctx stamped BudgetNs %d, want 0", req.BudgetNs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := stampBudget(ctx, &req); err != nil {
		t.Fatalf("live deadline: %v", err)
	}
	if req.BudgetNs <= 0 || req.BudgetNs > int64(time.Minute) {
		t.Fatalf("BudgetNs = %d, want within (0, 1m]", req.BudgetNs)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	err := stampBudget(expired, &req)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ctx err = %v, want ErrDeadlineExceeded", err)
	}
}

func BenchmarkPredictWithDeadline(b *testing.B) {
	// The per-request deadline machinery on the client send path —
	// reading the context deadline and stamping BudgetNs — must stay
	// allocation-free: it runs on every frame of every deadlined call.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	req := Request{Queries: []Query{{Packed: intscore.Split([]int8{1, 0, 0, 0})}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stampBudget(ctx, &req); err != nil {
			b.Fatal(err)
		}
	}
	if req.BudgetNs == 0 {
		b.Fatal("budget was not stamped")
	}
}
