package offload

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"

	"privehd/internal/trace"
)

// preTraceRequest and preTraceReply mirror the v4 frame shapes as they
// were before the trace fields existed: a peer compiled against that
// revision declares exactly these fields, and gob's field-superset rule
// silently drops anything extra — the compatibility contract that lets
// tracing ship without a version bump.
type preTraceRequest struct {
	ID      uint64
	Op      string
	Queries []Query
}

type preTraceReply struct {
	ID      uint64
	Code    string
	Detail  string
	Results []Result
	Models  []ModelListing
}

func TestTracedClientAgainstPreTraceServer(t *testing.T) {
	// A sampling client talking to a server that predates the Trace field:
	// the server's decoder drops the unknown field, answers normally with a
	// Timing-less reply, and the client records the trace with no server
	// breakdown instead of failing.
	defer trace.SetSampling(trace.Sampling())
	trace.SetSampling(1)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			conn, err := lis.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return err
			}
			dec := gob.NewDecoder(conn)
			enc := gob.NewEncoder(conn)
			var hello Hello
			if err := dec.Decode(&hello); err != nil {
				return err
			}
			if err := enc.Encode(ServerHello{
				Version: ProtocolVersion, Dim: 4, Classes: 2,
				MaxBatch: DefaultMaxBatch, MinSymbol: -2, MaxSymbol: 1,
			}); err != nil {
				return err
			}
			// The pre-trace decoder: any Trace field on the wire is dropped.
			var req preTraceRequest
			if err := dec.Decode(&req); err != nil {
				return err
			}
			return enc.Encode(preTraceReply{
				ID:      req.ID,
				Results: []Result{{Label: 1, Scores: []float64{0, 1}}},
			})
		}()
	}()

	entries := make(chan trace.Entry, 4)
	trace.SetObserver(func(e trace.Entry) { entries <- e })
	defer trace.SetObserver(nil)

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	label, _, err := c.Classify(asQuery([]float64{1, 1, 0, 0}))
	if err != nil {
		t.Fatalf("Classify against pre-trace server: %v", err)
	}
	if label != 1 {
		t.Errorf("label = %d, want 1", label)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("pre-trace server: %v", err)
	}
	select {
	case e := <-entries:
		if e.TraceID == 0 {
			t.Error("client entry carries no trace ID despite sampling 1")
		}
		if e.ServerTotalNs != 0 {
			t.Errorf("client entry claims server timing %dns from a server that cannot report any", e.ServerTotalNs)
		}
		if e.TotalNs <= 0 {
			t.Errorf("client entry TotalNs = %d, want > 0", e.TotalNs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no client trace entry recorded")
	}
}

func TestPreTraceClientAgainstTracingServer(t *testing.T) {
	// A byte-faithful pre-trace v4 client against a server that samples
	// every request: the server attaches Timing to its replies, the old
	// client's decoder drops it, and the exchange still round-trips.
	defer trace.SetSampling(trace.Sampling())
	trace.SetSampling(1)

	addr, _, cleanup := startServer(t, labelModel(1))
	defer cleanup()
	conn, enc, dec := rawHandshake(t, addr, ProtocolVersion, Hello{Dim: 4})
	defer conn.Close()
	for i := uint64(1); i <= 3; i++ {
		if err := enc.Encode(preTraceRequest{ID: i, Queries: []Query{{Packed: []int8{1, 1, 0, 0}}}}); err != nil {
			t.Fatal(err)
		}
		var reply preTraceReply
		if err := dec.Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if reply.ID != i || reply.Code != "" || len(reply.Results) != 1 || reply.Results[0].Label != 1 {
			t.Fatalf("frame %d reply = %+v", i, reply)
		}
	}
}

func TestTracedRequestGetsTimingUntracedDoesNot(t *testing.T) {
	// With sampling off, only frames that arrive with an explicit Trace ID
	// get a Timing breakdown back; untraced frames get the exact pre-trace
	// reply shape (nil Timing).
	defer trace.SetSampling(trace.Sampling())
	trace.SetSampling(0)

	addr, _, cleanup := startServer(t, labelModel(1))
	defer cleanup()
	conn, enc, dec := rawHandshake(t, addr, ProtocolVersion, Hello{Dim: 4})
	defer conn.Close()

	if err := enc.Encode(Request{ID: 1, Trace: 0xabcdef, Queries: []Query{{Packed: []int8{1, 1, 0, 0}}}}); err != nil {
		t.Fatal(err)
	}
	var traced Reply
	if err := dec.Decode(&traced); err != nil {
		t.Fatal(err)
	}
	if traced.Timing == nil {
		t.Fatal("traced request got no Timing breakdown")
	}
	if traced.Timing.TotalNs <= 0 {
		t.Errorf("Timing.TotalNs = %d, want > 0", traced.Timing.TotalNs)
	}
	if traced.Timing.QueueNs+traced.Timing.ScoreNs > traced.Timing.TotalNs {
		t.Errorf("stages queue %d + score %d exceed total %d",
			traced.Timing.QueueNs, traced.Timing.ScoreNs, traced.Timing.TotalNs)
	}

	if err := enc.Encode(Request{ID: 2, Queries: []Query{{Packed: []int8{1, 1, 0, 0}}}}); err != nil {
		t.Fatal(err)
	}
	var untraced Reply
	if err := dec.Decode(&untraced); err != nil {
		t.Fatal(err)
	}
	if untraced.Timing != nil {
		t.Errorf("untraced request got Timing %+v, want none", untraced.Timing)
	}
}

// secondFrame encodes the same value twice on one gob stream and returns
// the second frame's bytes — pure value encoding, with the type
// descriptor already sent in the first frame.
func secondFrame(t *testing.T, encode func(*gob.Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := encode(enc); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := encode(enc); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()[n:]...)
}

// framePayload strips a value frame's length byte and stream-local type
// id (3 bytes), leaving the field payload. Type ids are arbitrary
// stream-assignment counters — the new stream also numbers StageTiming —
// so only the payload is comparable across struct revisions.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("implausibly short gob value frame: %x", frame)
	}
	return frame[3:]
}

func TestUntracedFramesByteIdenticalToPreTrace(t *testing.T) {
	// gob omits zero-valued fields from value encodings, so an untraced
	// Request (Trace 0) and a Timing-less Reply must encode to exactly the
	// payload bytes a pre-trace peer would produce — tracing costs
	// untraced traffic nothing on the wire.
	qs := []Query{{Packed: []int8{1, -1, 0, 1}}}
	newReq := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(Request{ID: 9, Queries: qs})
	})
	oldReq := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(preTraceRequest{ID: 9, Queries: qs})
	})
	if len(newReq) != len(oldReq) || !bytes.Equal(framePayload(t, newReq), framePayload(t, oldReq)) {
		t.Errorf("untraced Request value encoding differs from pre-trace shape:\n new %x\n old %x", newReq, oldReq)
	}

	rs := []Result{{Label: 2, Scores: []float64{0.25, 0.5, 0.25}}}
	newRep := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(Reply{ID: 9, Results: rs})
	})
	oldRep := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(preTraceReply{ID: 9, Results: rs})
	})
	if len(newRep) != len(oldRep) || !bytes.Equal(framePayload(t, newRep), framePayload(t, oldRep)) {
		t.Errorf("untimed Reply value encoding differs from pre-trace shape:\n new %x\n old %x", newRep, oldRep)
	}
}
