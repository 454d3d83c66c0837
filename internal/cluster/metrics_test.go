package cluster

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"privehd/internal/offload"
)

// lockedBuffer lets the test read log output that the prober goroutine is
// still writing.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestHealthTransitionLogsAndMetrics kills a replica and brings it back,
// checking that each transition emits exactly one structured log event
// with the replica address, and moves the transition counters and health
// gauge — and that steady-state probing stays silent.
func TestHealthTransitionLogsAndMetrics(t *testing.T) {
	r1 := startReplica(t, 8)
	r2 := startReplica(t, 8)

	var buf lockedBuffer
	cl, err := NewCluster(ClusterConfig{
		Network:       "tcp",
		Addrs:         []string{r1.addr, r2.addr},
		Hello:         offload.Hello{Dim: 8},
		ProbeInterval: 50 * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ejectedBefore := cmTransitions.With(r1.addr, "ejected").Value()
	readmittedBefore := cmTransitions.With(r1.addr, "readmitted").Value()

	ctx := context.Background()
	if _, _, err := cl.Classify(ctx, classQuery(8, 0)); err != nil {
		t.Fatal(err)
	}

	r1.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for cmTransitions.With(r1.addr, "ejected").Value() == ejectedBefore {
		if time.Now().After(deadline) {
			t.Fatal("replica was never ejected")
		}
		// Traffic or a probe discovers the death, whichever comes first.
		cl.Classify(ctx, classQuery(8, 0))
		time.Sleep(10 * time.Millisecond)
	}
	if got := cmReplicaHealthy.With(r1.addr).Value(); got != 0 {
		t.Errorf("healthy gauge after eject = %d, want 0", got)
	}

	if err := r1.Restart(); err != nil {
		t.Fatal(err)
	}
	for cmTransitions.With(r1.addr, "readmitted").Value() == readmittedBefore {
		if time.Now().After(deadline) {
			t.Fatal("replica was never re-admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := cmReplicaHealthy.With(r1.addr).Value(); got != 1 {
		t.Errorf("healthy gauge after readmit = %d, want 1", got)
	}

	// Let a few more probe rounds pass: re-confirming a stable state must
	// not mint more transitions.
	time.Sleep(200 * time.Millisecond)
	if got := cmTransitions.With(r1.addr, "readmitted").Value(); got != readmittedBefore+1 {
		t.Errorf("readmitted transitions = %d, want %d (steady-state probes must be silent)",
			got, readmittedBefore+1)
	}

	out := buf.String()
	if n := strings.Count(out, "replica ejected"); n != 1 {
		t.Errorf("%d 'replica ejected' events, want 1; log:\n%s", n, out)
	}
	if n := strings.Count(out, "replica re-admitted"); n != 1 {
		t.Errorf("%d 'replica re-admitted' events, want 1; log:\n%s", n, out)
	}
	if !strings.Contains(out, "replica="+r1.addr) {
		t.Errorf("events lack the replica address %s; log:\n%s", r1.addr, out)
	}
}
