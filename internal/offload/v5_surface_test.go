package offload

// Coverage for the surfaces protocol v5 introduced — shard descriptors in
// the handshake, partial-score frames, GoAway drain notices — and for the
// typed refusal a client gets from a server that speaks an earlier,
// gob-framed version only.

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"privehd/internal/registry"
)

func TestV5ClientGetsGoAwayOnShutdown(t *testing.T) {
	// A v5 client is told about the drain before the FIN: the unsolicited
	// Reply{GoAway} flips Draining() so pools stop routing new work here
	// while in-flight replies still arrive.
	addr, srv, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()
	if c.Draining() {
		t.Fatal("fresh connection reports draining")
	}
	// One round trip proves the connection works before the drain.
	if _, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0})); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("client never saw the GoAway drain notice")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown returned %v", err)
	}
}

func TestV6ClientRefusedByGobV5ServerTyped(t *testing.T) {
	// A v5 server framed everything in gob: it reads the 4-byte header,
	// refuses any other version with a gob-encoded version-mismatch answer
	// and never echoes a header of its own. The v6 client must surface
	// that as ErrVersionMismatch — a typed refusal, not a retryable
	// transport failure.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				hdr := make([]byte, 4)
				if _, err := io.ReadFull(conn, hdr); err != nil {
					return
				}
				// The fields of the v5 handshake answer a refusal sets.
				gob.NewEncoder(conn).Encode(struct {
					Code, Detail string
					Version      byte
				}{
					Code:    "version-mismatch",
					Detail:  fmt.Sprintf("server speaks v5 only, client sent v%d", hdr[3]),
					Version: 5,
				})
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	_, err = Dial(context.Background(), "tcp", lis.Addr().String(), Hello{Dim: 4})
	if err == nil {
		t.Fatal("dial of a v5 gob server succeeded")
	}
	if !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("err = %v, want ErrVersionMismatch", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Errorf("version refusal wraps ErrTransport (would be retried): %v", err)
	}
}

func TestServerHelloCarriesShardDescriptor(t *testing.T) {
	// A sliced registry entry advertises its shard descriptor in the v5
	// handshake; a whole entry advertises none.
	reg := registry.New()
	if _, err := reg.Register("whole", labelModel(0), registry.EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	info := &registry.ShardInfo{DimOffset: 0, DimLen: 4, ClassOffset: 0, ClassCount: 2, FullDim: 8, FullClasses: 2}
	if _, err := reg.RegisterShard("slice", labelModel(0), registry.EncoderInfo{}, info); err != nil {
		t.Fatal(err)
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()

	cw, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Model: "whole"})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	if cw.Shard() != nil {
		t.Errorf("whole model advertised shard %+v", cw.Shard())
	}
	cs, err := Dial(context.Background(), "tcp", addr, Hello{Dim: 4, Model: "slice"})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	got := cs.Shard()
	if got == nil {
		t.Fatal("sliced model advertised no shard descriptor")
	}
	if *got != *info {
		t.Errorf("shard descriptor = %+v, want %+v", got, info)
	}
	if got.Whole() {
		t.Error("a strict slice reports Whole()")
	}
}

func TestPartialScoresExactAndComposable(t *testing.T) {
	// Partial scores over the full dimension range must reproduce the
	// classify path bit for bit: score[l] == dot[l] / sqrt(normSq[l]).
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()

	q := []int8{1, -1, 1, 0}
	partials, normSq, err := c.PartialScores([][]int8{q})
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) != 1 || len(partials[0]) != 2 || len(normSq) != 2 {
		t.Fatalf("partials = %v, normSq = %v", partials, normSq)
	}
	// toyModel classes: {1,1,0,0} and {0,0,1,1} → dots 0 and 1, Σv² 2 and 2.
	if partials[0][0] != 0 || partials[0][1] != 1 {
		t.Errorf("dots = %v, want [0 1]", partials[0])
	}
	if normSq[0] != 2 || normSq[1] != 2 {
		t.Errorf("normSq = %v, want [2 2]", normSq)
	}
	_, scores, err := c.Classify(asQuery([]float64{1, -1, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	for l := range normSq {
		want := float64(partials[0][l]) / math.Sqrt(normSq[l])
		if scores[l] != want {
			t.Errorf("class %d: classify score %v, partial reconstruction %v", l, scores[l], want)
		}
	}
}

func TestPartialScoresOfNonIntegerModel(t *testing.T) {
	// A model whose classes are not integer-valued (e.g. unquantized scalar
	// encoding) is served in fixed point, so it answers partial scores like
	// any other, and they reconstruct its classify scores exactly.
	m := labelModel(0)
	m.Add(0, []float64{0.5, 0.25, 0, 0})
	addr, _, cleanup := startServer(t, m)
	defer cleanup()
	c := dialToy(t, addr)
	defer c.Close()

	q := []float64{1, 1, 0, -1}
	packed, _ := PackQuery(q)
	partials, normSq, err := c.PartialScores([][]int8{packed})
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) != 1 || len(partials[0]) != 2 || len(normSq) != 2 {
		t.Fatalf("partials = %v, normSq = %v", partials, normSq)
	}
	_, scores, err := c.Classify(asQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	float := m.Scores(q)
	for l := range normSq {
		if want := float64(partials[0][l]) / math.Sqrt(normSq[l]); scores[l] != want {
			t.Errorf("class %d: classify score %v, partial reconstruction %v", l, scores[l], want)
		}
		if math.Abs(scores[l]-float[l]) > 1e-6*math.Abs(float[l]) {
			t.Errorf("class %d: fixed-point score %v, float %v", l, scores[l], float[l])
		}
	}
}

func TestPartialScoresRefusesVectorQueries(t *testing.T) {
	// Partial scoring is integer-domain only: a full-precision Vector query
	// on an OpPartialScores frame is refused with the typed code, not
	// silently rounded.
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	conn, enc, dec := rawHandshake(t, addr, Hello{Dim: 4})
	defer conn.Close()
	if err := enc.Encode(Request{ID: 1, Op: OpPartialScores,
		Queries: []Query{{Vector: []float64{0.5, 0.5, 0, 0}}}}); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Code != codePartial {
		t.Errorf("reply code = %q, want %q", reply.Code, codePartial)
	}
}
