package offload

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"privehd/internal/trace"
)

// preBudgetRequest mirrors the Request shape as it was before BudgetNs
// existed (the trace-era v5 frame): a peer compiled against that revision
// declares exactly these fields, and gob's field-superset rule silently
// drops the new one — the same compatibility contract tracing shipped
// under, extended to deadline propagation.
type preBudgetRequest struct {
	ID      uint64
	Op      string
	Queries []Query
	Trace   uint64
}

func TestUndeadlinedFramesByteIdenticalToPreBudget(t *testing.T) {
	// gob omits zero-valued fields, so a Request without a deadline
	// (BudgetNs 0) must encode to exactly the payload bytes a pre-budget
	// peer would produce — deadline propagation costs undeadlined
	// traffic nothing on the wire and needs no version bump.
	qs := []Query{{Packed: []int8{1, -1, 0, 1}}}
	newReq := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(Request{ID: 9, Queries: qs})
	})
	oldReq := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(preBudgetRequest{ID: 9, Queries: qs})
	})
	if len(newReq) != len(oldReq) || !bytes.Equal(framePayload(t, newReq), framePayload(t, oldReq)) {
		t.Errorf("undeadlined Request value encoding differs from pre-budget shape:\n new %x\n old %x", newReq, oldReq)
	}

	// Traced but undeadlined: the Trace field rides along exactly as
	// before, still without a BudgetNs on the wire.
	newTraced := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(Request{ID: 9, Trace: 0xbeef, Queries: qs})
	})
	oldTraced := secondFrame(t, func(enc *gob.Encoder) error {
		return enc.Encode(preBudgetRequest{ID: 9, Trace: 0xbeef, Queries: qs})
	})
	if len(newTraced) != len(oldTraced) || !bytes.Equal(framePayload(t, newTraced), framePayload(t, oldTraced)) {
		t.Errorf("traced undeadlined Request differs from pre-budget shape:\n new %x\n old %x", newTraced, oldTraced)
	}
}

func TestDeadlinedClientAgainstPreBudgetServer(t *testing.T) {
	// A deadline-stamping client talking to a server that predates
	// BudgetNs: the server's decoder drops the unknown field and answers
	// normally — deadlines degrade to a client-side-only bound.
	defer trace.SetSampling(trace.Sampling())
	trace.SetSampling(0)

	addr, _, cleanup := startServer(t, labelModel(1))
	defer cleanup()
	conn, enc, dec := rawHandshake(t, addr, Hello{Dim: 4})
	defer conn.Close()

	// The "pre-budget server" side is simulated by the real server
	// decoding a frame we know carries BudgetNs: the server DOES know the
	// field, so prove the inverse too — an old client's frame (no
	// BudgetNs on the wire) decodes to budget 0 and is never shed.
	if err := enc.Encode(preBudgetRequest{ID: 1, Queries: []Query{{Packed: []int8{1, 1, 0, 0}}}}); err != nil {
		t.Fatal(err)
	}
	var reply Reply
	if err := dec.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Code != "" || len(reply.Results) != 1 {
		t.Fatalf("pre-budget frame was not answered normally: %+v", reply)
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
// stream-assignment counters, so only the payload is comparable across
// struct revisions.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("implausibly short gob value frame: %x", frame)
	}
	return frame[3:]
}
