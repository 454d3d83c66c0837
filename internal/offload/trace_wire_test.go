package offload

import (
	"testing"

	"privehd/internal/intscore"
	"privehd/internal/trace"
)

func TestTracedRequestGetsTimingUntracedDoesNot(t *testing.T) {
	// With sampling off, only frames that arrive with an explicit Trace ID
	// get a Timing breakdown back; untraced frames get none (nil Timing).
	defer trace.SetSampling(trace.Sampling())
	trace.SetSampling(0)

	addr, _, cleanup := startServer(t, labelModel(1))
	defer cleanup()
	conn, enc, dec := rawHandshake(t, addr, Hello{Dim: 4})
	defer conn.Close()

	if err := enc.Encode(Request{ID: 1, Trace: 0xabcdef, Queries: []Query{{Packed: intscore.Split([]int8{1, 1, 0, 0})}}}); err != nil {
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

	if err := enc.Encode(Request{ID: 2, Queries: []Query{{Packed: intscore.Split([]int8{1, 1, 0, 0})}}}); err != nil {
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
