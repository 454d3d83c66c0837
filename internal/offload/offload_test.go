package offload

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privehd/internal/attack"
	"privehd/internal/dataset"
	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/prune"
	"privehd/internal/registry"
	"privehd/internal/trace"
	"privehd/internal/vecmath"
)

// startServer runs a server on a loopback listener and returns its address
// and a shutdown func.
func startServer(t *testing.T, m *hdc.Model, opts ...ServerOption) (string, *Server, func()) {
	t.Helper()
	return startServerOn(t, listen(t), m, opts...)
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return lis
}

// startServerOn is startServer over a caller-supplied listener (e.g. a
// tapped one).
func startServerOn(t *testing.T, lis net.Listener, m *hdc.Model, opts ...ServerOption) (string, *Server, func()) {
	t.Helper()
	srv := NewServer(m, opts...)
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
			t.Error("server did not shut down")
		}
	}
	return lis.Addr().String(), srv, cleanup
}

// asQuery wraps a prepared test vector in the wire form a client would
// build for it: packed when every value is a protocol symbol, full
// precision otherwise.
func asQuery(v []float64) Query {
	if p, ok := PackQuery(v); ok {
		return Query{Packed: intscore.Split(p)}
	}
	return Query{Vector: v}
}

// asQueries is asQuery over a batch.
func asQueries(vs [][]float64) []Query {
	qs := make([]Query, len(vs))
	for i, v := range vs {
		qs[i] = asQuery(v)
	}
	return qs
}

func toyModel() *hdc.Model {
	m := hdc.NewModel(2, 4)
	m.Add(0, []float64{1, 1, 0, 0})
	m.Add(1, []float64{0, 0, 1, 1})
	return m
}

func dialToy(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rawHandshake performs a hand-rolled handshake and returns the conn with
// a request encoder and reply decoder over it — for tests that craft wire
// frames directly, which must not go through a Client whose recv goroutine
// would consume the replies.
func rawHandshake(t *testing.T, addr string, hello Hello) (net.Conn, requestEncoder, replyDecoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteHello(conn, hello); err != nil {
		t.Fatal(err)
	}
	sh, err := ReadServerHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Code != "" {
		t.Fatalf("raw handshake rejected: %s (%s)", sh.Code, sh.Detail)
	}
	return conn, requestEncoder{conn}, replyDecoder{conn, sh}
}

// requestEncoder writes request frames to a raw connection.
type requestEncoder struct{ w io.Writer }

func (e requestEncoder) Encode(req Request) error { return WriteRequest(e.w, req) }

// replyDecoder reads reply frames from a raw connection.
type replyDecoder struct {
	r  io.Reader
	sh ServerHello
}

func (d replyDecoder) Decode(reply *Reply) (err error) {
	*reply, err = ReadReply(d.r, d.sh)
	return err
}

func TestClassifyOverTCP(t *testing.T) {
	addr, srv, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	if c.Dim() != 4 || c.Classes() != 2 || c.MaxBatch() != DefaultMaxBatch {
		t.Errorf("handshake advertised dim=%d classes=%d maxBatch=%d", c.Dim(), c.Classes(), c.MaxBatch())
	}
	label, scores, err := c.Classify(asQuery([]float64{2, 1, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if label != 0 {
		t.Errorf("label = %d, want 0", label)
	}
	if len(scores) != 2 || scores[0] <= scores[1] {
		t.Errorf("scores = %v", scores)
	}
	// Stream another query on the same connection.
	label, _, err = c.Classify(asQuery([]float64{0, 0, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Errorf("label = %d, want 1", label)
	}
	if srv.Served() != 2 {
		t.Errorf("Served = %d, want 2", srv.Served())
	}
}

func TestHandshakeRejectsWrongDim(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	_, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 5})
	if !errors.Is(err, ErrGeometryMismatch) {
		t.Errorf("dim-5 client against dim-4 model: err = %v, want ErrGeometryMismatch", err)
	}
}

func TestHandshakeRejectsWrongClasses(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	_, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Classes: 7})
	if !errors.Is(err, ErrGeometryMismatch) {
		t.Errorf("7-class client against 2-class model: err = %v, want ErrGeometryMismatch", err)
	}
	// Classes 0 means "unknown" and is accepted.
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestHandshakeRejectsWrongVersion(t *testing.T) {
	// The server speaks exactly one version: every other version byte —
	// an earlier protocol revision or a hypothetical future one — gets the
	// typed refusal, which names only the version the server speaks.
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	for _, version := range []byte{2, 3, 4, 5, ProtocolVersion + 1} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{'P', 'H', 'D', version}); err != nil {
			t.Fatal(err)
		}
		hello, err := ReadServerHello(conn)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if hello.Code != codeVersion {
			t.Errorf("v%d: hello.Code = %q, want %q", version, hello.Code, codeVersion)
		}
		if err := codeError(hello.Code, hello.Detail); !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("v%d: codeError = %v, want ErrVersionMismatch", version, err)
		}
		if hello.Version != ProtocolVersion {
			t.Errorf("v%d: server advertised v%d, want v%d", version, hello.Version, ProtocolVersion)
		}
		want := fmt.Sprintf("server speaks v%d only, client sent v%d", ProtocolVersion, version)
		if hello.Detail != want {
			t.Errorf("v%d: detail = %q, want %q", version, hello.Detail, want)
		}
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A legacy (v1) peer opens with a gob stream, not the magic.
	if _, err := conn.Write([]byte("+\xff\x81\x03\x01\x01\x05Query")); err != nil {
		t.Fatal(err)
	}
	hello, err := ReadServerHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Code != codeBadMagic {
		t.Errorf("hello.Code = %q, want %q", hello.Code, codeBadMagic)
	}
}

func TestServerRejectsOutOfAlphabetSymbols(t *testing.T) {
	addr, srv, cleanup := startServer(t, toyModel())
	defer cleanup()
	// A symbol outside the advertised −2…+1 alphabet has no 2-bit
	// encoding, so a packed Query cannot hold one. Where int8 queries
	// enter the package, PartialScores refuses it before a byte is sent,
	// typed, without breaking the connection.
	c := dialToy(t, addr)
	defer c.Close()
	if _, _, err := c.PartialScores([][]int8{{1, 0, 5, 0}}); !errors.Is(err, ErrSymbolOutOfRange) || errors.Is(err, ErrTransport) {
		t.Errorf("PartialScores with symbol 5: err = %v, want ErrSymbolOutOfRange (not transport)", err)
	}
	if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
		t.Fatalf("connection unusable after a refused query: %v", err)
	}
	// The wire's symbol code still decodes typed.
	if err := codeError(codeSymbol, "symbol 5"); !errors.Is(err, ErrSymbolOutOfRange) {
		t.Errorf("codeError = %v, want ErrSymbolOutOfRange", err)
	}
	if srv.Served() != 1 {
		t.Errorf("Served = %d, want only the one valid query", srv.Served())
	}
}

func TestServerRejectsOversizedBatch(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel(), WithMaxBatch(2))
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	if c.MaxBatch() != 2 {
		t.Fatalf("advertised MaxBatch = %d, want 2", c.MaxBatch())
	}
	// The client honors the advertised limit by chunking, so a 5-query
	// batch succeeds through multiple round trips.
	labels, err := c.ClassifyBatch(asQueries([][]float64{
		{2, 1, 0, 0}, {0, 0, 1, 2}, {3, 3, 0, 0}, {0, 0, 2, 2}, {1, 2, 0, 0},
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	// A misbehaving client that ignores the limit is rejected: a frame
	// still within the connection's size cap (packed queries) gets the
	// typed batch refusal, one past it (full-precision queries) the typed
	// frame refusal.
	for _, tc := range []struct {
		q    Query
		want error
	}{
		{Query{Packed: intscore.Split([]int8{1, 0, 0, 0})}, ErrBatchTooLarge},
		{Query{Vector: []float64{1, 0, 0, 0}}, ErrFrameTooLarge},
	} {
		_, renc, rdec := rawHandshake(t, addr, Hello{Dim: 4})
		req := Request{ID: 7, Queries: []Query{tc.q, tc.q, tc.q}}
		if err := renc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var reply Reply
		if err := rdec.Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if err := codeError(reply.Code, reply.Detail); !errors.Is(err, tc.want) || reply.ID != 7 {
			t.Errorf("oversized batch: reply %d %v, want ID 7 and %v", reply.ID, err, tc.want)
		}
	}
}

func TestServerRejectsWrongDimQuery(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	if _, _, err := c.Classify(asQuery([]float64{0.5})); err == nil {
		t.Error("expected dimension error")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, srv, cleanup := startServer(t, toyModel())
	defer cleanup()
	const clients, queries = 8, 10
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Classes: 2})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for q := 0; q < queries; q++ {
				if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if srv.Served() != clients*queries {
		t.Errorf("Served = %d, want %d", srv.Served(), clients*queries)
	}
}

func TestContextCancelStopsServer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(toyModel())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, lis) }()

	c, err := Dial(context.Background(), "tcp", lis.Addr().String(), Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after cancel = %v, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	// The open connection is closed by the shutdown.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection still served after shutdown")
		}
	}
}

func TestGracefulShutdownFinishesInFlight(t *testing.T) {
	addr, srv, _ := startServer(t, toyModel())
	var wg sync.WaitGroup
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
			if err != nil {
				results <- err
				return
			}
			defer c.Close()
			if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
				results <- err
				return
			}
			results <- nil
		}()
	}
	wg.Wait()
	ctx, cancelT := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelT()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if srv.Served() != 4 {
		t.Errorf("Served = %d, want 4", srv.Served())
	}
}

// batchModel is an integer-valued model, so its entry is partial-capable
// and packed queries score on the integer engine.
func batchModel(rng *rand.Rand, classes, dim int) *hdc.Model {
	m := hdc.NewModel(classes, dim)
	v := make([]float64, dim)
	for c := 0; c < classes; c++ {
		for j := range v {
			v[j] = float64(rng.Intn(7) - 3)
		}
		m.Add(c, v)
	}
	return m
}

func TestClassifyBatch(t *testing.T) {
	// However a batch is split over the scoring goroutines, its answers
	// come back in input order and equal scoring each query on its own:
	// labels and scores for a mixed packed/full-precision classify frame,
	// int64 dots for a partial-score frame.
	const dim, classes = 64, 5
	rng := rand.New(rand.NewSource(3))
	model := batchModel(rng, classes, dim)
	packed := make([][]int8, DefaultMaxBatch)
	queries := make([]Query, DefaultMaxBatch)
	for i := range queries {
		packed[i] = make([]int8, dim)
		for j := range packed[i] {
			packed[i][j] = int8(rng.Intn(4)) + MinSymbol
		}
		queries[i] = Query{Packed: intscore.Split(packed[i])}
		if i%3 == 1 {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			queries[i] = Query{Vector: v}
		}
	}
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			addr, _, cleanup := startServer(t, model, WithWorkers(workers))
			defer cleanup()
			c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: dim})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			want := make([]Result, len(queries))
			wantParts := make([][]int64, len(packed))
			for i, q := range queries {
				label, scores, err := c.Classify(q)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = Result{Label: label, Scores: scores}
				parts, _, err := c.PartialScores(packed[i : i+1])
				if err != nil {
					t.Fatal(err)
				}
				wantParts[i] = parts[0]
			}
			for _, n := range []int{1, 2, 3, 4, 7, DefaultMaxBatch} {
				got, err := c.ClassifyBatchScores(queries[:n])
				if err != nil {
					t.Fatalf("batch of %d: %v", n, err)
				}
				if !reflect.DeepEqual(got, want[:n]) {
					t.Errorf("batch of %d: results differ from per-query Classify", n)
				}
				gotParts, _, err := c.PartialScores(packed[:n])
				if err != nil {
					t.Fatalf("partial batch of %d: %v", n, err)
				}
				if !reflect.DeepEqual(gotParts, wantParts[:n]) {
					t.Errorf("partial batch of %d: dots differ from per-query partials", n)
				}
			}
			// A bad query in the batch fails the whole request with no
			// results.
			if _, err := c.ClassifyBatch([]Query{queries[0], {Vector: []float64{0.5}}}); err == nil {
				t.Error("expected error for bad dimension")
			}
		})
	}
}

func TestPackQuery(t *testing.T) {
	packed, ok := PackQuery([]float64{-2, -1, 0, 1})
	if !ok {
		t.Fatal("integer query should pack")
	}
	want := []int8{-2, -1, 0, 1}
	for i := range want {
		if packed[i] != want[i] {
			t.Fatalf("packed = %v", packed)
		}
	}
	if _, ok := PackQuery([]float64{0.5}); ok {
		t.Error("fractional query must not pack")
	}
	if _, ok := PackQuery([]float64{1000}); ok {
		t.Error("out-of-range query must not pack")
	}
	// Values that fit int8 but escape the protocol alphabet must travel
	// full-precision rather than pack into symbols the server will reject.
	if _, ok := PackQuery([]float64{2}); ok {
		t.Error("+2 is outside the −2…+1 alphabet and must not pack")
	}
	if _, ok := PackQuery([]float64{-3}); ok {
		t.Error("−3 is outside the −2…+1 alphabet and must not pack")
	}
}

func TestPackedQueryClassifiesIdentically(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	// A quantized (integer) query takes the packed path; a fractional one
	// takes the float path. Both must classify correctly.
	label, _, err := c.Classify(asQuery([]float64{1, 1, -1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if label != 0 {
		t.Errorf("packed-path label = %d, want 0", label)
	}
	label, _, err = c.Classify(asQuery([]float64{0.1, 0.2, 1.5, 1.4}))
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Errorf("float-path label = %d, want 1", label)
	}
}

func TestPackedWireIsSmaller(t *testing.T) {
	// The point of packing: a quantized 10k-dim query costs 2 bits per
	// dimension on the wire vs 8 bytes for float64.
	dim := 10000
	qFloat := make([]float64, dim)
	qInt := make([]float64, dim)
	for i := range qFloat {
		// Full-mantissa values, as real (unquantized) encodings have.
		qFloat[i] = 0.1234567890123 * float64(i+1)
		qInt[i] = float64(i%3 - 1)
	}
	sizeOf := func(q Query) int {
		b, err := appendRequest(nil, &Request{Queries: []Query{q}})
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	packed, ok := PackQuery(qInt)
	if !ok {
		t.Fatal("should pack")
	}
	floatBytes := sizeOf(Query{Vector: qFloat})
	packedBytes := sizeOf(Query{Packed: intscore.Split(packed)})
	if packedBytes > dim/4+64 || packedBytes*30 > floatBytes {
		t.Errorf("packed %dB vs float %dB: expected D/4 bytes, a ≥30× saving", packedBytes, floatBytes)
	}
}

func TestWiretapSeesQueries(t *testing.T) {
	tapped, tap := Tap(listen(t))
	addr, _, cleanup := startServerOn(t, tapped, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	// One packed (integer) and one full-precision query; the tap must see
	// both wire forms.
	queries := [][]float64{{1, -1, 0, 1}, {0.25, 1, 0, 0}}
	for _, q := range queries {
		if _, _, err := c.Classify(asQuery(q)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for {
		qs := tap.Queries()
		if len(qs) == len(queries) {
			for i, want := range queries {
				for j := range want {
					if qs[i][j] != want[j] {
						t.Fatalf("tapped query %d = %v, want %v", i, qs[i], want)
					}
				}
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("tap captured %d queries, want %d", len(qs), len(queries))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestEndToEndObfuscatedInference(t *testing.T) {
	// Full §III-C round trip: train a full-precision model, serve it,
	// classify through an obfuscating edge, and verify (a) accuracy
	// survives and (b) the eavesdropped queries reconstruct poorly.
	if testing.Short() {
		t.Skip("end-to-end offload test is slow")
	}
	d, err := dataset.Gaussian(dataset.GaussianSpec{
		Name: "offload-e2e", Features: 40, Classes: 3, TrainPer: 30, TestPer: 8,
		Separation: 0.25, Noise: 0.07, ActiveFraction: 0.5, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	hdcfg := hdc.Config{Dim: 4000, Features: 40, Levels: 16, Seed: 22}
	// Cloud: full-precision model over plain encodings.
	enc, err := hdc.NewScalarEncoder(hdcfg)
	if err != nil {
		t.Fatal(err)
	}
	trainEnc := hdc.EncodeBatch(enc, d.TrainX, 0)
	model, err := hdc.Train(trainEnc, d.TrainY, d.Classes, hdcfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	tapped, tap := Tap(listen(t))
	addr, _, cleanup := startServerOn(t, tapped, model)
	defer cleanup()

	// Edge: 1-bit quantize + mask 25% of dims.
	mask := prune.RandomMask(hdcfg.Dim, 1000, hrand.New(23).SampleK)

	client, err := Dial(context.Background(), "tcp", addr, Hello{Dim: hdcfg.Dim, Classes: d.Classes})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	correct := 0
	for i, x := range d.TestX {
		q := intscore.NewPlanes(hdcfg.Dim)
		enc.EncodePackedInto(x, encslice.SchemeBipolar, q)
		q.And(mask.Words())
		label, _, err := client.Classify(Query{Packed: q})
		if err != nil {
			t.Fatal(err)
		}
		if label == d.TestY[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(d.TestX))
	if acc < 0.8 {
		t.Errorf("obfuscated accuracy = %v, want ≥ 0.8", acc)
	}

	// Eavesdropper: wait for all taps, reconstruct, compare with the
	// reconstruction from unobfuscated queries.
	deadline := time.After(2 * time.Second)
	for len(tap.Queries()) < len(d.TestX) {
		select {
		case <-deadline:
			t.Fatalf("tap captured %d/%d queries", len(tap.Queries()), len(d.TestX))
		case <-time.After(10 * time.Millisecond):
		}
	}
	queries := tap.Queries()
	var obfMSE, cleanMSE float64
	for i, x := range d.TestX {
		truth := make([]float64, len(x))
		for k, v := range x {
			truth[k] = hdc.LevelValue(hdc.LevelIndex(v, hdcfg.Levels), hdcfg.Levels)
		}
		obfRecon, err := attack.DecodeScaled(enc, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		cleanRecon, err := attack.DecodeScaled(enc, enc.Encode(x))
		if err != nil {
			t.Fatal(err)
		}
		obfMSE += vecmath.MSE(truth, obfRecon)
		cleanMSE += vecmath.MSE(truth, cleanRecon)
	}
	if obfMSE <= cleanMSE {
		t.Errorf("eavesdropper MSE with obfuscation (%v) should exceed clean (%v)", obfMSE, cleanMSE)
	}
}

// labelModel returns a 2-class dim-4 model that predicts label want for the
// query {1,1,0,0}.
func labelModel(want int) *hdc.Model {
	m := hdc.NewModel(2, 4)
	m.Add(want, []float64{1, 1, 0, 0})
	m.Add(1-want, []float64{0, 0, 1, 1})
	return m
}

// startRegistryServer serves a registry on a loopback listener.
func startRegistryServer(t *testing.T, reg *registry.Registry, opts ...ServerOption) (string, *Server, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg, opts...)
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
			t.Error("server did not shut down")
		}
	}
	return lis.Addr().String(), srv, cleanup
}

func TestMultiModelServing(t *testing.T) {
	// Two models with opposite label assignments behind one listener; the
	// handshake's model name decides which answers.
	reg := registry.New()
	if _, err := reg.Register("alpha", labelModel(0), registry.EncoderInfo{Levels: 8, Features: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("beta", labelModel(1), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	addr, srv, cleanup := startRegistryServer(t, reg)
	defer cleanup()

	q := []float64{1, 1, 0, 0}
	for _, tc := range []struct {
		model string
		want  int
	}{
		{"alpha", 0}, {"beta", 1}, {"", 0}, // "" resolves to the default (first registered)
	} {
		c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Model: tc.model})
		if err != nil {
			t.Fatalf("dial %q: %v", tc.model, err)
		}
		wantName := tc.model
		if wantName == "" {
			wantName = "alpha"
		}
		if got := c.Model(); got != wantName {
			t.Errorf("dial %q bound to model %q, want %q", tc.model, got, wantName)
		}
		if c.ModelVersion() != 1 {
			t.Errorf("dial %q ModelVersion = %d, want 1", tc.model, c.ModelVersion())
		}
		label, _, err := c.Classify(asQuery(q))
		if err != nil {
			t.Fatalf("classify via %q: %v", tc.model, err)
		}
		if label != tc.want {
			t.Errorf("model %q answered %d, want %d", tc.model, label, tc.want)
		}
		c.Close()
	}
	if srv.Served() != 3 {
		t.Errorf("Served = %d, want 3", srv.Served())
	}
}

func TestUnknownModelRejectedAtHandshake(t *testing.T) {
	reg := registry.New()
	if _, err := reg.Register("only", labelModel(0), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()
	_, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Model: "ghost"})
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("dial ghost = %v, want ErrUnknownModel", err)
	}
}

func TestEmptyRegistryRejectsDefaultRequests(t *testing.T) {
	addr, _, cleanup := startRegistryServer(t, registry.New())
	defer cleanup()
	_, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("dial empty registry = %v, want ErrUnknownModel", err)
	}
}

func TestAutoConfigureHandshakeDimZero(t *testing.T) {
	reg := registry.New()
	info := registry.EncoderInfo{Encoding: 1, Levels: 16, Features: 40, Seed: 77}
	if _, err := reg.Register("auto", labelModel(0), info); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()
	// Dim 0 = "any geometry": the server answers with the model's geometry
	// and full encoder setup instead of rejecting.
	c, err := Dial(context.Background(), "tcp", addr, Hello{Model: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.ServerHello()
	if h.Dim != 4 || h.Classes != 2 {
		t.Errorf("geometry = dim %d classes %d", h.Dim, h.Classes)
	}
	if h.Encoding != info.Encoding || h.Levels != info.Levels || h.Features != info.Features || h.Seed != info.Seed {
		t.Errorf("encoder setup = %+v, want %+v", h, info)
	}
	if label, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil || label != 0 {
		t.Errorf("classify after auto-configure: label %d, err %v", label, err)
	}
}

func TestHotSwapUnderLiveTraffic(t *testing.T) {
	// Clients stream while the model behind their connection is swapped
	// repeatedly: no query may fail, and both publications' answers must
	// be observed. Run with -race this exercises the RCU swap path.
	reg := registry.New()
	if _, err := reg.Register("hot", labelModel(0), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg, WithWorkers(4))
	defer cleanup()

	const clients = 4
	stop := make(chan struct{})
	type tally struct {
		zeros, ones int
		err         error
	}
	tallies := make(chan tally, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tl tally
			defer func() { tallies <- tl }()
			c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Model: "hot"})
			if err != nil {
				tl.err = err
				return
			}
			defer c.Close()
			q := [][]float64{{1, 1, 0, 0}, {1, 1, 0, 0}, {1, 1, 0, 0}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				labels, err := c.ClassifyBatch(asQueries(q))
				if err != nil {
					tl.err = err
					return
				}
				for _, l := range labels {
					if l == 0 {
						tl.zeros++
					} else {
						tl.ones++
					}
				}
			}
		}()
	}
	for v := 0; v < 50; v++ {
		e, err := reg.Swap("hot", labelModel((v+1)%2), registry.EncoderInfo{})
		if err != nil {
			t.Fatal(err)
		}
		if e.Version != v+2 {
			t.Fatalf("swap %d published version %d", v, e.Version)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(tallies)
	var zeros, ones int
	for tl := range tallies {
		if tl.err != nil {
			t.Errorf("client failed during hot swap: %v", tl.err)
		}
		zeros += tl.zeros
		ones += tl.ones
	}
	if zeros == 0 || ones == 0 {
		t.Errorf("hot swap never observed both publications: zeros=%d ones=%d", zeros, ones)
	}
}

func TestDeregisterMidStreamFailsFramesNotConnection(t *testing.T) {
	reg := registry.New()
	if _, err := reg.Register("gone", labelModel(0), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Model: "gone"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
		t.Fatal(err)
	}
	if err := reg.Deregister("gone"); err != nil {
		t.Fatal(err)
	}
	// The frame is answered with a typed error, the connection survives...
	if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("classify after deregister = %v, want ErrUnknownModel", err)
	}
	// ...and the model coming back restores service on the same conn.
	if _, err := reg.Register("gone", labelModel(1), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	label, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Errorf("label after re-register = %d, want 1", label)
	}
}

func TestWorkerPoolServesManyConnections(t *testing.T) {
	// Two scoring tokens behind 8 connections streaming batches: everything
	// must still answer correctly (the tokens are shared, not per-conn).
	addr, srv, cleanup := startServer(t, labelModel(0), WithWorkers(2), WithMaxBatch(8))
	defer cleanup()
	const clients, rounds = 8, 5
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			batch := [][]float64{{1, 1, 0, 0}, {0, 0, 1, 1}, {1, 1, 0, 0}, {0, 0, 1, 1}}
			for r := 0; r < rounds; r++ {
				labels, err := c.ClassifyBatch(asQueries(batch))
				if err != nil {
					errs <- err
					return
				}
				want := []int{0, 1, 0, 1}
				for j := range want {
					if labels[j] != want[j] {
						errs <- fmt.Errorf("round %d: labels %v", r, labels)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Served(); got != clients*rounds*4 {
		t.Errorf("Served = %d, want %d", got, clients*rounds*4)
	}
}

func TestMalformedQueryWithBothWireFormsRejected(t *testing.T) {
	// A query abusing both wire forms (Vector and Packed set) must get a
	// typed dimension rejection, never a panic in the scorer: the
	// effective length prefers Vector, the same precedence the scorer
	// applies (see TestServerAbusedQueryBothFields for the accepted case).
	addr, srv, cleanup := startServer(t, labelModel(0))
	defer cleanup()
	_, enc, dec := rawHandshake(t, addr, Hello{Dim: 4})
	// len(Vector)+len(Packed) == model dim, but the effective (Vector)
	// length is 2: must be rejected, and the server must survive.
	if err := enc.Encode(Request{Queries: []Query{{Vector: []float64{1, 1}, Packed: intscore.Split([]int8{0, 0})}}}); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Code != codeDim {
		t.Errorf("both-forms query answered %q, want %q", reply.Code, codeDim)
	}
	// A well-formed query on the same connection still works.
	if err := enc.Encode(Request{Queries: []Query{{Vector: []float64{1, 1, 0, 0}}}}); err != nil {
		t.Fatal(err)
	}
	var reply2 Reply
	if err := dec.Decode(&reply2); err != nil {
		t.Fatal(err)
	}
	if reply2.Code != "" || reply2.Results[0].Label != 0 {
		t.Errorf("follow-up reply = %+v", reply2)
	}
	if srv.Served() != 1 {
		t.Errorf("Served = %d, want 1", srv.Served())
	}
}

func TestSetDefaultDoesNotRebindLiveConnections(t *testing.T) {
	// A connection that handshook against the default model is pinned to
	// the resolved name: changing the default afterwards must not silently
	// switch which model answers its frames.
	reg := registry.New()
	if _, err := reg.Register("alpha", labelModel(0), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("beta", labelModel(1), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Model() != "alpha" {
		t.Fatalf("default dial bound to %q", c.Model())
	}
	if err := reg.SetDefault("beta"); err != nil {
		t.Fatal(err)
	}
	label, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if label != 0 {
		t.Errorf("established connection answered by the new default (label %d), want pinned alpha (0)", label)
	}
	// New connections see the new default.
	c2, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Model() != "beta" {
		t.Errorf("new default dial bound to %q, want beta", c2.Model())
	}
}

// bigModel returns a 2-class model of the given dimensionality whose class
// 0 vector is all +1 and class 1 all −1 — scoring cost scales with dim, so
// tests can make frames take measurable server time.
func bigModel(dim int) *hdc.Model {
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

// posQuery returns an all-ones query of the given dimensionality (class 0).
func posQuery(dim int) []float64 {
	q := make([]float64, dim)
	for i := range q {
		q[i] = 1
	}
	return q
}

func TestPipelinedRepliesOutOfOrder(t *testing.T) {
	// Pipelining at the wire level: a frame stuck in scoring must not hold
	// back a later frame on the same connection, and replies are matched
	// by request ID. With every scoring token held, the classify frame
	// (ID 1) cannot finish, so the Ping (ID 2) sent after it must be
	// answered first; releasing the tokens then lets the classify finish.
	const dim = 64
	addr, srv, cleanup := startServer(t, bigModel(dim), WithWorkers(2))
	defer cleanup()
	release := HoldScoringTokens(srv)
	released := false
	defer func() { // before cleanup: Close waits for the held frame
		if !released {
			release()
		}
	}()

	conn, enc, dec := rawHandshake(t, addr, Hello{Dim: dim})
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	packed, ok := PackQuery(posQuery(dim))
	if !ok {
		t.Fatal("query should pack")
	}
	if err := enc.Encode(Request{ID: 1, Queries: []Query{{Packed: intscore.Split(packed)}}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Request{ID: 2, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var ping, classify Reply
	if err := dec.Decode(&ping); err != nil {
		t.Fatalf("Ping reply while the classify frame waits for a token: %v", err)
	}
	if ping.ID != 2 || ping.Code != "" {
		t.Fatalf("first reply: ID %d code %q, want the Ping (ID 2) answered cleanly", ping.ID, ping.Code)
	}
	release()
	released = true
	if err := dec.Decode(&classify); err != nil {
		t.Fatal(err)
	}
	if classify.ID != 1 || classify.Code != "" || len(classify.Results) != 1 {
		t.Fatalf("second reply: ID %d code %q with %d results, want the classify (ID 1) with 1",
			classify.ID, classify.Code, len(classify.Results))
	}
}

func TestConcurrentCallersShareOneConnection(t *testing.T) {
	// The pipelined client is safe for concurrent use: many goroutines
	// multiplex over one connection and every reply is routed to its
	// caller by request ID.
	addr, srv, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()

	const callers, rounds = 32, 20
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		want := i % 2
		go func() {
			q := []float64{1, 1, 0, 0}
			if want == 1 {
				q = []float64{0, 0, 1, 1}
			}
			for r := 0; r < rounds; r++ {
				label, _, err := c.Classify(asQuery(q))
				if err != nil {
					errs <- err
					return
				}
				if label != want {
					errs <- fmt.Errorf("caller wanting %d got label %d", want, label)
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
	if srv.Served() != callers*rounds {
		t.Errorf("Served = %d, want %d", srv.Served(), callers*rounds)
	}
}

func TestListModels(t *testing.T) {
	reg := registry.New()
	if _, err := reg.Register("alpha", labelModel(0), registry.EncoderInfo{Encoding: 1, Levels: 8, Features: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("beta", labelModel(1), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetDefault("beta"); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	models, err := c.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Name != "alpha" || models[1].Name != "beta" {
		t.Fatalf("models = %+v", models)
	}
	a := models[0]
	if a.Dim != 4 || a.Classes != 2 || a.Version != 1 || a.Encoding != 1 || a.Levels != 8 || a.Features != 3 || a.Seed != 5 || a.Default {
		t.Errorf("alpha listing = %+v", a)
	}
	if !models[1].Default {
		t.Error("beta should be listed as the default")
	}
	// The listing tracks the live registry: a swap bumps the version.
	if _, err := reg.Swap("alpha", labelModel(0), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	models, err = c.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if models[0].Version != 2 {
		t.Errorf("post-swap alpha version = %d, want 2", models[0].Version)
	}
}

func TestUnsupportedOpRejected(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	_, enc, dec := rawHandshake(t, addr, Hello{Dim: 4})
	if err := enc.Encode(Request{ID: 9, Op: 42}); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.ID != 9 {
		t.Errorf("reply ID = %d, want 9", reply.ID)
	}
	if err := codeError(reply.Code, reply.Detail); !errors.Is(err, ErrUnsupportedOp) {
		t.Errorf("unknown op answered %v, want ErrUnsupportedOp", err)
	}
}

func TestIOTimeoutUnblocksHungServer(t *testing.T) {
	// A server that completes the handshake then goes silent: without
	// WithIOTimeout a Classify would block forever (the old client cleared
	// the conn deadline after the handshake and never set one again).
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
		if _, err := ReadHello(conn); err != nil {
			return
		}
		WriteServerHello(conn, ServerHello{
			Version: ProtocolVersion, Dim: 4, Classes: 2,
			MaxBatch: 8, MinSymbol: MinSymbol, MaxSymbol: MaxSymbol,
		})
		// Keep reading requests, never answer.
		for {
			if _, err := readRequest(conn, maxFrameLen); err != nil {
				return
			}
		}
	}()

	c, err := Dial(context.Background(), "tcp", lis.Addr().String(), Hello{Dim: 4},
		WithIOTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, _, err = c.Classify(asQuery([]float64{1, 1, 0, 0}))
	if !errors.Is(err, ErrIOTimeout) || !errors.Is(err, ErrTransport) {
		t.Errorf("hung server: err = %v, want ErrIOTimeout (wrapping ErrTransport)", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Classify blocked %v despite the 150ms i/o timeout", elapsed)
	}
}

func TestIOTimeoutSparesIdleConnections(t *testing.T) {
	// The timeout bounds reply progress, not connection lifetime: a conn
	// idle far longer than the timeout must still serve the next query.
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4},
		WithIOTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 2; round++ {
		label, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0}))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if label != 0 {
			t.Fatalf("round %d: label = %d", round, label)
		}
		time.Sleep(300 * time.Millisecond)
	}
}

func TestDialCancelledMidHandshake(t *testing.T) {
	// A listener that accepts and never answers the handshake: cancelling
	// the dial context must abort promptly with a transport error, not
	// hang in the gob decode.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		accepted <- conn // hold the conn open, never respond
	}()
	defer func() {
		select {
		case conn := <-accepted:
			conn.Close()
		default:
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = Dial(ctx, "tcp", lis.Addr().String(), Hello{Dim: 4})
	if !errors.Is(err, ErrTransport) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled handshake: err = %v, want ErrTransport wrapping context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Dial blocked %v after cancellation", elapsed)
	}
}

// noReadDeadline hides read deadlines from the client, so only a frame
// write's own bound can end a call.
type noReadDeadline struct{ net.Conn }

func (noReadDeadline) SetReadDeadline(time.Time) error { return nil }

func TestIOTimeoutBoundsBlockedWrite(t *testing.T) {
	// A server that completes the handshake and then never reads: once the
	// socket buffers fill, the caller writing the next frame blocks. The
	// IO timeout must bound that write and say it was a timeout.
	const dim, maxBatch = 1024, 128 // 1 MiB of vector payload per frame
	for _, tc := range []struct {
		name string
		wrap func(net.Conn) net.Conn
	}{
		{"tcp", func(c net.Conn) net.Conn { return c }},
		{"write-deadline-only", func(c net.Conn) net.Conn { return noReadDeadline{c} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis := listen(t)
			defer lis.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				accepted <- conn // closed below, after the calls returned
				if _, err := ReadHello(conn); err != nil {
					return
				}
				WriteServerHello(conn, ServerHello{
					Version: ProtocolVersion, Dim: dim, Classes: 2,
					MaxBatch: maxBatch, MinSymbol: MinSymbol, MaxSymbol: MaxSymbol,
				})
			}()
			conn, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { (<-accepted).Close() }()
			c, err := NewClient(tc.wrap(conn), Hello{Dim: dim}, WithIOTimeout(150*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			v := make([]float64, dim)
			v[0] = 0.5 // not a protocol symbol: travels in full precision
			qs := make([]Query, 32*maxBatch)
			for i := range qs {
				qs[i] = Query{Vector: v}
			}
			const callers = 4
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				go func() {
					start := time.Now()
					_, err := c.ClassifyBatchScores(qs)
					if elapsed := time.Since(start); elapsed > 3*time.Second {
						err = fmt.Errorf("call blocked %v despite the 150ms i/o timeout: %w", elapsed, err)
					}
					errs <- err
				}()
			}
			for g := 0; g < callers; g++ {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrIOTimeout) || !errors.Is(err, ErrTransport) {
						t.Errorf("blocked write: err = %v, want ErrIOTimeout (wrapping ErrTransport)", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a call never returned from a blocked write")
				}
			}
			if c.Err() == nil {
				t.Error("client still usable after a write timed out")
			}
		})
	}
}

func TestDeadlineEndsTheWaitBehindABlockedWrite(t *testing.T) {
	// A server that stops reading stalls the frame write in progress. A
	// caller queued behind it must give up at its own deadline, not at the
	// IO timeout, and must write nothing: its frame would only be shed.
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		if _, err := ReadHello(srv); err != nil {
			return
		}
		WriteServerHello(srv, ServerHello{
			Version: ProtocolVersion, Dim: 4, Classes: 2,
			MaxBatch: 8, MinSymbol: MinSymbol, MaxSymbol: MaxSymbol,
		})
	}()
	c, err := NewClient(cli, Hello{Dim: 4}, WithIOTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inflight := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.inflight)
	}

	// The server reads nothing, so this Ping's write blocks on the pipe.
	// It registers under the write lock, so once it is in flight it holds
	// the lock.
	blocked := make(chan error, 1)
	go func() { blocked <- c.Ping(context.Background()) }()
	for wait := time.Now().Add(5 * time.Second); inflight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatal("the first call never started its write")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = c.ClassifyContext(ctx, asQuery([]float64{1, 1, 0, 0}))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("a 100ms call waited %v for the write lock", elapsed)
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("call past its deadline: err = %v, want ErrDeadlineExceeded", err)
	}
	if n := inflight(); n != 1 {
		t.Errorf("%d requests in flight, want only the blocked one", n)
	}
	if err := c.Err(); err != nil {
		t.Errorf("the connection failed: %v", err)
	}

	// Reading again unblocks the Ping's frame, and nothing follows it.
	if req, err := readRequest(srv, maxFrameLen); err != nil || req.Op != OpPing {
		t.Fatalf("first frame: op %d, err %v; want the blocked Ping", req.Op, err)
	}
	srv.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if req, err := readRequest(srv, maxFrameLen); err == nil {
		t.Errorf("a frame past its caller's deadline reached the wire: ID %d op %d", req.ID, req.Op)
	}
	srv.Close()
	if err := <-blocked; !errors.Is(err, ErrTransport) {
		t.Errorf("blocked Ping after the server left: err = %v, want ErrTransport", err)
	}
}

func TestPipelinedCallsResolveOnClose(t *testing.T) {
	// Closing a client mid-stream resolves every call, answered or failed
	// with ErrTransport, records each traced call exactly once and leaves
	// no goroutine of the client behind. The server is stopped before the
	// goroutine count is compared, so it is counted from before it started.
	defer trace.SetSampling(trace.Sampling())
	trace.SetSampling(1)
	before := runtime.NumGoroutine()
	addr, _, cleanup := startServer(t, toyModel())
	stopServer := sync.OnceFunc(cleanup)
	defer stopServer()
	var mu sync.Mutex
	recorded := map[uint64]int{}
	outcomes := map[string]int{}
	trace.SetObserver(func(e trace.Entry) {
		if e.Peer != addr {
			return
		}
		mu.Lock()
		recorded[e.TraceID]++
		outcomes[e.Outcome]++
		mu.Unlock()
	})
	defer trace.SetObserver(nil)

	c := dialToy(t, addr)
	const callers = 16
	var answered, failed atomic.Int64
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for {
				start := time.Now()
				_, _, err := c.ClassifyContext(context.Background(), asQuery([]float64{1, 1, 0, 0}))
				if elapsed := time.Since(start); elapsed > 2*time.Second {
					errs <- fmt.Errorf("call took %v", elapsed)
					return
				}
				if err != nil {
					failed.Add(1)
					if !errors.Is(err, ErrTransport) {
						err = fmt.Errorf("call after Close: err = %v, want ErrTransport", err)
					} else {
						err = nil
					}
					errs <- err
					return
				}
				answered.Add(1)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); answered.Load() < 200; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d calls answered before Close", answered.Load())
		}
	}
	c.Close()
	closed := time.Now()
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d callers still blocked 2s after Close", callers-g, callers)
		}
	}
	stopServer()

	mu.Lock()
	for id, n := range recorded {
		if n != 1 {
			t.Errorf("trace %x recorded %d times, want once", id, n)
		}
	}
	if outcomes["ok"] != int(answered.Load()) {
		t.Errorf("%d ok trace entries for %d answered calls", outcomes["ok"], answered.Load())
	}
	if outcomes["transport"] > int(failed.Load()) {
		t.Errorf("%d transport trace entries for %d failed calls", outcomes["transport"], failed.Load())
	}
	mu.Unlock()

	n := runtime.NumGoroutine()
	for deadline := closed.Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines 1s after Close, %d before Dial", n, before)
	}
}

func TestShutdownWithInFlightPipelinedRequests(t *testing.T) {
	// Shutdown while a pipelined client has many frames outstanding: every
	// frame the server accepted must be answered before its connection
	// closes, later frames must fail with a clean transport error, and
	// nothing may hang or lose a response.
	const dim = 4096
	addr, srv, _ := startServer(t, bigModel(dim), WithWorkers(2))
	c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const frames = 8
	batch := make([][]float64, 64)
	for i := range batch {
		batch[i] = posQuery(dim)
	}
	results := make(chan error, frames)
	for i := 0; i < frames; i++ {
		go func() {
			labels, err := c.ClassifyBatch(asQueries(batch))
			if err == nil {
				for _, l := range labels {
					if l != 0 {
						err = fmt.Errorf("label %d, want 0", l)
						break
					}
				}
			}
			results <- err
		}()
	}
	// Wait until the server has demonstrably started answering (first
	// frame fully served), so later frames are genuinely in flight when
	// the shutdown hits — under -race everything runs much slower, and a
	// fixed sleep could fire before any frame even reached the server.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Served() < 64 {
		if time.Now().After(deadline) {
			t.Fatal("server never started answering")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancelT := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelT()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	succeeded := 0
	for i := 0; i < frames; i++ {
		select {
		case err := <-results:
			switch {
			case err == nil:
				succeeded++
			case errors.Is(err, ErrTransport):
				// Frame not yet accepted when shutdown hit: a clean,
				// typed refusal — never a corrupt or missing reply.
			default:
				t.Errorf("frame failed with non-transport error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a pipelined frame never resolved after Shutdown")
		}
	}
	if succeeded == 0 {
		t.Error("no in-flight frame survived a graceful shutdown")
	}
	t.Logf("graceful shutdown answered %d/%d pipelined frames", succeeded, frames)
}

func TestShutdownBoundedByIdlePeerThatNeverCloses(t *testing.T) {
	// A peer that handshakes, sends nothing, and ignores the graceful
	// FIN: Shutdown must not block until its ctx expires — the half-close
	// arms a read deadline that unpins the idle handler.
	addr, srv, _ := startServer(t, toyModel())
	conn, _, _ := rawHandshake(t, addr, Hello{Dim: 4})
	_ = conn // held open, never closed, never written to again

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Shutdown took %v against an idle peer, want ≤ the ~2s drain bound", elapsed)
	}
}

func TestShutdownClosesMidHandshakeConnectionFully(t *testing.T) {
	// A connection caught mid-handshake has no replies at risk, so a
	// graceful Shutdown closes it outright instead of half-closing and
	// waiting out the ~2s drain bound — whether the peer has sent nothing
	// yet or only its header.
	for _, sent := range [][]byte{nil, {'P', 'H', 'D', ProtocolVersion}} {
		addr, srv, _ := startServer(t, toyModel())
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(sent); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; {
			srv.mu.Lock()
			n := len(srv.conns)
			srv.mu.Unlock()
			if n == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("server never registered the connection")
			}
			time.Sleep(time.Millisecond)
		}
		// Let the handler reach its handshake read.
		time.Sleep(20 * time.Millisecond)

		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("sent %q: Shutdown = %v, want nil", sent, err)
		}
		cancel()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("sent %q: Shutdown took %v, want an immediate close of the mid-handshake connection", sent, elapsed)
		}
	}
}

func TestServeAfterCloseReturnsSentinel(t *testing.T) {
	// Serve on a server already closed or shut down refuses with the
	// typed ErrServerClosed and closes the listener it was handed, so
	// nothing is left accepting, as net/http does.
	for name, stop := range map[string]func(*Server) error{
		"close":    (*Server).Close,
		"shutdown": func(s *Server) error { return s.Shutdown(context.Background()) },
	} {
		srv := NewServer(toyModel())
		if err := stop(srv); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lis := listen(t)
		if err := srv.Serve(context.Background(), lis); !errors.Is(err, ErrServerClosed) {
			t.Errorf("%s: Serve = %v, want ErrServerClosed", name, err)
		}
		if conn, err := lis.Accept(); err == nil {
			conn.Close()
			t.Errorf("%s: the listener still accepts after Serve refused", name)
		}
	}
}
