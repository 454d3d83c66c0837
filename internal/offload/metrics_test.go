package offload

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestOverloadRejection exercises the WithMaxConns backpressure path: a
// connection past the limit is refused with a typed, retryable
// ErrOverloaded at dial time, and the slot frees once an existing
// connection closes.
func TestOverloadRejection(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel(), WithMaxConns(1))
	defer cleanup()

	rejBefore := mRejections.With(codeOverloaded).Value()

	c1 := dialToy(t, addr)
	// The first connection holds the only slot; the next dial must be
	// refused with the typed overload code, not hang.
	_, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dial past limit: err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("ErrOverloaded must wrap ErrTransport (retryable), err = %v", err)
	}
	if got := mRejections.With(codeOverloaded).Value(); got != rejBefore+1 {
		t.Errorf("overload rejections = %d, want %d", got, rejBefore+1)
	}

	// Releasing the held connection frees the slot. The server forgets the
	// conn asynchronously after the close, so poll briefly.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c2, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
		if err == nil {
			c2.Close()
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("redial after release: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing the held connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSilentPeerReleasesSlot: a peer that connects and never sends its
// handshake must be hung up on after the handshake bound, freeing its
// WithMaxConns slot for a real client.
func TestSilentPeerReleasesSlot(t *testing.T) {
	srv := NewServer(toyModel(), WithMaxConns(1))
	srv.handshake = 100 * time.Millisecond
	lis := listen(t)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	defer func() {
		srv.Close()
		<-done
	}()
	addr := lis.Addr().String()

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent peer read = %v, want EOF from the server hanging up", err)
	}

	// The server forgets the conn just after closing it, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4})
		if err == nil {
			defer c.Close()
			if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("dial after the silent peer timed out: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerMetricsCounters checks that serving traffic moves the
// process-global counters by exactly the traffic served: connections,
// per-op requests, per-model queries, latency-histogram counts, and wire
// bytes.
func TestServerMetricsCounters(t *testing.T) {
	// Snapshot before — the registry is process-global and other tests in
	// the package move the same counters.
	connsBefore := mConnsTotal.Value()
	reqBefore := mRequests.With("classify").Value()
	qBefore := mQueries.With(DefaultModelName).Value()
	histBefore := mRequestSeconds.With("classify").Count()
	readBefore := mReadBytes.Value()
	writtenBefore := mWrittenBytes.Value()

	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)

	const frames = 3
	for i := 0; i < frames; i++ {
		if _, _, err := c.Classify(asQuery([]float64{2, 1, 0, 0})); err != nil {
			t.Fatal(err)
		}
	}
	batch := [][]float64{{2, 1, 0, 0}, {0, 0, 1, 2}}
	if _, err := c.ClassifyBatch(asQueries(batch)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	if got := mConnsTotal.Value() - connsBefore; got != 1 {
		t.Errorf("connections delta = %d, want 1", got)
	}
	if got := mRequests.With("classify").Value() - reqBefore; got != frames+1 {
		t.Errorf("classify requests delta = %d, want %d", got, frames+1)
	}
	if got := mQueries.With(DefaultModelName).Value() - qBefore; got != frames+2 {
		t.Errorf("queries delta = %d, want %d", got, frames+2)
	}
	if got := mRequestSeconds.With("classify").Count() - histBefore; got != frames+1 {
		t.Errorf("latency histogram count delta = %d, want %d", got, frames+1)
	}
	if mReadBytes.Value() == readBefore {
		t.Error("read bytes counter did not move")
	}
	if mWrittenBytes.Value() == writtenBefore {
		t.Error("written bytes counter did not move")
	}
}

// TestCountingConnPreservesCloseWrite pins the graceful-shutdown
// contract: wrapping a TCP conn for byte metering must keep CloseWrite
// reachable, and must NOT invent one for conns that lack it.
func TestCountingConnPreservesCloseWrite(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()

	// Client side proves the server's FIN still arrives on shutdown paths
	// elsewhere; here check the wrapper's static behavior directly.
	c := dialToy(t, addr)
	defer c.Close()

	wrapped := countConn(c.conn) // *net.TCPConn underneath
	if _, ok := wrapped.(closeWriter); !ok {
		t.Error("countConn dropped CloseWrite from a TCP conn")
	}

	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	if _, ok := countConn(p1).(closeWriter); ok {
		t.Error("countConn invented CloseWrite for a pipe conn")
	}
}
