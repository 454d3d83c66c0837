package offload

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"privehd/internal/intscore"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// readRequest reads one request frame of at most limit bytes, decoding it
// into fresh storage — the server's read path without its pooling.
func readRequest(r io.Reader, limit int) (Request, error) {
	body, err := readFrame(r, nil, limit)
	if err != nil {
		return Request{}, err
	}
	return decodeRequest(body, new(frameBufs))
}

// goldenSymbols is a 16-dimensional packed query using every symbol of the
// alphabet; goldenRequest is its untraced, undeadlined one-query request
// frame with ID 9.
var (
	goldenSymbols = []int8{1, 0, -1, -2, 1, 1, 0, 0, -2, -2, -1, -1, 0, 1, 0, 1}
	goldenRequest = []byte{
		23, 0, 0, 0, // body length
		9, 0, 0, 0, 0, 0, 0, 0, // ID
		0,          // op: classify
		0,          // flags: no trace, no budget
		1, 0, 0, 0, // one query
		0,           // kind: packed
		16, 0, 0, 0, // dim
		0x35, 0xac, // lo plane: the low bit of symbols 0–7, then 8–15
		0x0c, 0x0f, // hi plane: their high bits
	}
)

func TestRequestGoldenBytesWithoutTraceOrBudget(t *testing.T) {
	// An untraced, undeadlined request carries no trace or budget bytes,
	// and its query is exactly two 2-byte bit-planes at D=16.
	got, err := appendRequest(nil, &Request{ID: 9, Queries: []Query{{Packed: intscore.Split(goldenSymbols)}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, goldenRequest) {
		t.Fatalf("request frame\n got %x\nwant %x", got, goldenRequest)
	}
	req, err := readRequest(bytes.NewReader(goldenRequest), requestCap(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if req.ID != 9 || req.Op != OpClassify || req.Trace != 0 || req.BudgetNs != 0 || len(req.Queries) != 1 {
		t.Fatalf("decoded %+v", req)
	}
	if !reflect.DeepEqual(req.Queries[0].Packed, intscore.Split(goldenSymbols)) || req.Queries[0].Vector != nil {
		t.Fatalf("decoded query %+v, want packed %v", req.Queries[0], goldenSymbols)
	}
}

func TestTraceAndBudgetFlagsRoundTrip(t *testing.T) {
	// The trace ID and the budget each ride the frame only when set, and
	// every field survives the round trip.
	qs := []Query{{Packed: intscore.Split([]int8{1, -1, 0, -2, 1})}, {Vector: []float64{0.5, -1.25, math.Inf(1)}}}
	plain, err := appendRequest(nil, &Request{ID: 3, Op: OpPartialScores, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace  uint64
		budget int64
		flags  byte
	}{
		{0xbeef, 0, reqTraced},
		{0, 12345, reqBudget},
		{0xbeef, -7, reqTraced | reqBudget},
	} {
		want := Request{ID: 3, Op: OpPartialScores, Queries: qs, Trace: tc.trace, BudgetNs: tc.budget}
		frame, err := appendRequest(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		if frame[4+8+1] != tc.flags {
			t.Errorf("trace %x budget %d: flags %#x, want %#x", tc.trace, tc.budget, frame[13], tc.flags)
		}
		extra := 0
		if tc.trace != 0 {
			extra += 8
		}
		if tc.budget != 0 {
			extra += 8
		}
		if len(frame) != len(plain)+extra {
			t.Errorf("trace %x budget %d: %d bytes, want %d", tc.trace, tc.budget, len(frame), len(plain)+extra)
		}
		got, err := readRequest(bytes.NewReader(frame), len(frame))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestPackedPlanesRoundTripEveryLength(t *testing.T) {
	// Every symbol at every position, over lengths that exercise whole
	// plane words, whole bytes and the ragged tail; a set padding bit is
	// refused.
	for dim := 0; dim <= 140; dim++ {
		q := make([]int8, dim)
		for i := range q {
			q[i] = int8((i*7+dim)%4) - 2
		}
		p := intscore.Split(q)
		b := appendPlane(appendPlane(nil, p.Lo(), 0, dim), p.Hi(), 0, dim)
		if len(b) != 2*planeLen(dim) {
			t.Fatalf("dim %d: %d plane bytes, want %d", dim, len(b), 2*planeLen(dim))
		}
		got := intscore.NewPlanes(dim)
		n := planeLen(dim)
		if !readPlane(got.Lo(), b[:n], dim) || !readPlane(got.Hi(), b[n:], dim) || !reflect.DeepEqual(got, p) {
			t.Fatalf("dim %d: decoded %v, want %v", dim, got, p)
		}
		if r := dim % 8; r != 0 {
			b[n-1] |= 1 << r
			if readPlane(got.Lo(), b[:n], dim) {
				t.Fatalf("dim %d: a set padding bit decoded", dim)
			}
		}
	}
	// Planes too short for their dimensions cannot be encoded.
	short := Query{Packed: intscore.Planes{Dim: 65, Bits: make([]uint64, 2)}}
	if _, err := appendRequest(nil, &Request{Queries: []Query{short}}); err == nil {
		t.Fatal("planes of one word per plane encoded 65 dimensions")
	}
}

func TestPlanesSliceMatchesInt8Slice(t *testing.T) {
	// A query's Slice at (off, n) goes on the wire exactly as the planes of
	// the int8 slice q[off:off+n] do, for offsets on and off word and byte
	// boundaries — perfbench's D = 10 000 split at 5 000 among them — and
	// a slice of a slice adds its offsets.
	for _, tc := range []struct{ dim, off, n int }{
		{200, 0, 200}, {200, 0, 0}, {200, 5, 100}, {130, 63, 67}, {130, 64, 1},
		{64, 63, 1}, {129, 1, 128}, {2000, 0, 1001}, {2000, 1001, 999}, {10000, 5000, 5000},
	} {
		q := make([]int8, tc.dim)
		for i := range q {
			q[i] = int8((i*5+tc.off)%4) - 2
		}
		want, err := appendRequest(nil, &Request{Queries: []Query{{Packed: intscore.Split(q[tc.off : tc.off+tc.n])}}})
		if err != nil {
			t.Fatal(err)
		}
		full := Query{Packed: intscore.Split(q)}
		got, err := appendRequest(nil, &Request{Queries: []Query{full.Slice(tc.off, tc.n)}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("dim %d slice [%d,%d): frame differs from the int8 slice's", tc.dim, tc.off, tc.off+tc.n)
		}
		if tc.n > 2 {
			twice := full.Slice(tc.off, tc.n).Slice(1, tc.n-2)
			got, _ := appendRequest(nil, &Request{Queries: []Query{twice}})
			want, _ := appendRequest(nil, &Request{Queries: []Query{{Packed: intscore.Split(q[tc.off+1 : tc.off+tc.n-1])}}})
			if !bytes.Equal(got, want) {
				t.Errorf("dim %d slice [%d,%d) resliced: frame differs from the int8 slice's", tc.dim, tc.off, tc.off+tc.n)
			}
		}
	}
}

func TestServerRefusesOverCapFrameWithoutAllocating(t *testing.T) {
	// A request header declaring a 1 GiB body is refused typed — echoing
	// the frame's ID — without the server allocating for it, and the
	// connection is then closed.
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	conn, _, dec := rawHandshake(t, addr, Hello{Dim: 4})
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	hdr := binary.LittleEndian.AppendUint32(nil, 1<<30)
	hdr = binary.LittleEndian.AppendUint64(hdr, 5)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := codeError(reply.Code, reply.Detail); !errors.Is(err, ErrFrameTooLarge) || reply.ID != 5 {
		t.Fatalf("reply %d %v, want ID 5 and ErrFrameTooLarge", reply.ID, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("refusing a 1 GiB frame allocated %d bytes, want < 64 KiB", d)
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("after the refusal read %d bytes, %v; want the server's FIN", n, err)
	}
}

// startIdleServer serves toyModel with the idle bound shortened to idle.
func startIdleServer(t *testing.T, idle time.Duration) string {
	t.Helper()
	srv := NewServer(toyModel())
	srv.idle = idle
	lis := listen(t)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return lis.Addr().String()
}

func TestSilentPeerClosedAfterIdle(t *testing.T) {
	// A peer that handshakes and then goes silent is drained once the idle
	// bound passes with nothing in flight: GoAway, then the FIN.
	addr := startIdleServer(t, 200*time.Millisecond)
	conn, enc, dec := rawHandshake(t, addr, Hello{Dim: 4})
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := enc.Encode(Request{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil || reply.ID != 1 {
		t.Fatalf("ping answered %+v, %v", reply, err)
	}
	start := time.Now()
	if err := dec.Decode(&reply); err != nil || !reply.GoAway {
		t.Fatalf("silent peer got %+v, %v; want the GoAway drain notice", reply, err)
	}
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Errorf("drained after %v, before the 200ms idle bound", waited)
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("after GoAway read %d bytes, %v; want the server's FIN", n, err)
	}
}

func TestIdleBoundSparesInFlightFrames(t *testing.T) {
	// The idle bound only drains a connection with nothing in flight:
	// frames still scoring when it passes are all answered first, and the
	// drain notice follows them. The work arrives as many small pipelined
	// frames, so reading any one of them takes far less than the bound
	// while scoring them all on one worker takes far more.
	const frames, batch = 64, 16
	srv := NewServer(manyClassModel(), WithWorkers(1))
	srv.idle = 20 * time.Millisecond
	lis := listen(t)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	defer func() {
		srv.Close()
		<-done
	}()
	q := make([]int8, 4096)
	q[0] = 1
	var stream []byte
	for id := uint64(1); id <= frames; id++ {
		req := Request{ID: id, Queries: make([]Query, batch)}
		for i := range req.Queries {
			req.Queries[i] = Query{Packed: intscore.Split(q)}
		}
		var err error
		if stream, err = appendRequest(stream, &req); err != nil {
			t.Fatal(err)
		}
	}
	conn, _, dec := rawHandshake(t, lis.Addr().String(), Hello{Dim: 4096})
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	start := time.Now()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < frames; n++ {
		var reply Reply
		if err := dec.Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if reply.GoAway || len(reply.Results) != batch {
			t.Fatalf("frame %d back is %+v, want a reply of %d results", n, reply, batch)
		}
	}
	t.Logf("scored %d queries in %v against a %v idle bound", frames*batch, time.Since(start), srv.idle)
	var reply Reply
	if err := dec.Decode(&reply); err != nil || !reply.GoAway {
		t.Fatalf("after the last reply got %+v, %v; want the GoAway drain notice", reply, err)
	}
}

func TestIdleBoundSparesSlowlyArrivingBody(t *testing.T) {
	// The idle bound is about silence, not about how long a frame takes:
	// a body that keeps arriving, each gap well inside the bound, is read
	// to the end and answered even when the whole of it takes several
	// bounds to arrive.
	const idle, pieces, gap = 300 * time.Millisecond, 10, 60 * time.Millisecond
	addr := startIdleServer(t, idle)
	conn, _, dec := rawHandshake(t, addr, Hello{Dim: 4})
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	req := Request{ID: 7, Queries: make([]Query, 8)}
	for i := range req.Queries {
		req.Queries[i] = Query{Vector: []float64{0.5, 1, 0, 0}}
	}
	frame, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < pieces; i++ {
		if i > 0 {
			time.Sleep(gap)
		}
		if _, err := conn.Write(frame[i*len(frame)/pieces : (i+1)*len(frame)/pieces]); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
	}
	if took := time.Since(start); took <= idle {
		t.Fatalf("body arrived in %v, inside the %v idle bound; the test needs it slower", took, idle)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatalf("slowly arriving frame dropped: %v", err)
	}
	if reply.ID != 7 || reply.Code != "" || len(reply.Results) != len(req.Queries) {
		t.Fatalf("reply = %+v, want %d results for frame 7", reply, len(req.Queries))
	}
}

func TestPipelinedPeerThatNeverReadsIsDropped(t *testing.T) {
	// A peer that pipelines full-batch frames and never reads a reply
	// fills its small receive buffer and the server's send buffer, so
	// every reply write blocks and the reader parks on the pipeline bound.
	// The write bound must treat the peer as dead: the connection closes,
	// the parked frame goroutines and the reader exit, and a graceful
	// shutdown has nothing left to wait for.
	const idle = 200 * time.Millisecond
	before := runtime.NumGoroutine()
	srv := NewServer(toyModel())
	srv.idle = idle
	lis := listen(t)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	serving := before + 2 // Serve's accept loop and its context watcher

	conn, _, _ := rawHandshake(t, lis.Addr().String(), Hello{Dim: 4})
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	req := Request{Queries: make([]Query, DefaultMaxBatch)}
	for i := range req.Queries {
		req.Queries[i] = Query{Packed: intscore.Split([]int8{1, -1, 0, 1})}
	}
	// Write until the server drops the connection, which fails the write
	// blocked on its full receive buffer. A server that never drops it
	// leaves that write to time out.
	var frame []byte
	frames := 0
	for ; ; frames++ {
		req.ID = uint64(frames + 1)
		var err error
		if frame, err = appendRequest(frame[:0], &req); err != nil {
			t.Fatal(err)
		}
		conn.SetWriteDeadline(time.Now().Add(50 * idle))
		if _, err = conn.Write(frame); err != nil {
			t.Logf("peer wrote %d frames, then: %v", frames, err)
			break
		}
	}
	stopped := time.Now()
	n := runtime.NumGoroutine()
	for n > serving && time.Since(stopped) < 3*idle {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > serving {
		t.Errorf("%d goroutines 3 idle bounds after the peer's writes stopped, want %d", n, serving)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

func TestWiretapSkipsControlFrames(t *testing.T) {
	// The tap records the queries of classify and partial-score frames and
	// nothing of pings or listings.
	tapped, tap := Tap(listen(t))
	addr, _, cleanup := startServerOn(t, tapped, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListModels(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PartialScores([][]int8{{1, -2, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Classify(Query{Packed: intscore.Split([]int8{-1, 0, 1, 1})}); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, -2, 0, 1}, {-1, 0, 1, 1}}
	deadline := time.Now().Add(2 * time.Second)
	for len(tap.Queries()) < len(want) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tap.Queries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tapped %v, want %v", got, want)
	}
}

func TestVersionHeaderRequiredFromServer(t *testing.T) {
	// A server whose answer does not open with this version's header is
	// refused typed, whatever follows it.
	for _, opening := range [][]byte{
		{'P', 'H', 'D', ProtocolVersion - 1, 0, 0, 0, 0},
		[]byte("HTTP/1.1 400 Bad Request\r\n"),
	} {
		client, server := net.Pipe()
		go func() {
			ReadHello(server)
			server.Write(opening)
			server.Close()
		}()
		_, err := NewClient(client, Hello{Dim: 4})
		client.Close()
		if !errors.Is(err, ErrVersionMismatch) || errors.Is(err, ErrTransport) {
			t.Errorf("opening %q: err = %v, want a typed ErrVersionMismatch", opening, err)
		}
	}
}
