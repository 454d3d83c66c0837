package privehd_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privehd"

	"privehd/internal/admin"
	"privehd/internal/offload"
	"privehd/internal/trace"
)

// syncBuffer is a strings-inspectable log sink safe for the server's
// logging goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEndToEndTraceVisibility(t *testing.T) {
	// One sampled Predict must surface the SAME trace ID on every
	// observability surface: the client-side span, the server's flight
	// recorder behind GET /v1/debug/requests, the slow-request log line,
	// and an OpenMetrics exemplar on /metrics.
	defer privehd.SetTraceSampling(privehd.TraceSampling())
	privehd.SetTraceSampling(1)

	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	recorder := trace.NewRecorder(16, 16)

	pipe, X, _ := toyPipeline(t)
	srv, err := privehd.NewServer(pipe,
		privehd.WithSlowRequestLog(logger, time.Nanosecond), // everything is "slow"
		offload.WithFlightRecorder(recorder))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	defer func() {
		srv.Close()
		<-done
	}()

	entries := make(chan privehd.TraceEntry, 4)
	privehd.OnTrace(func(e privehd.TraceEntry) { entries <- e })
	defer privehd.OnTrace(nil)

	edge, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := dialEdge(lis.Addr().String(), "", edge)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, _, err := remote.Predict(X[0]); err != nil {
		t.Fatal(err)
	}

	// Surface 1: the client-side span, delivered through the observer.
	var clientEntry privehd.TraceEntry
	select {
	case clientEntry = <-entries:
	case <-time.After(5 * time.Second):
		t.Fatal("no client trace entry observed")
	}
	if clientEntry.TraceID == 0 {
		t.Fatal("client entry has no trace ID")
	}
	hexID := fmt.Sprintf("%016x", clientEntry.TraceID)
	if clientEntry.ServerTotalNs <= 0 {
		t.Errorf("client entry carries no server timing: %+v", clientEntry)
	}

	// Surface 2: the server flight recorder, through the real admin
	// handler at GET /v1/debug/requests (bearer-gated).
	mgr, err := privehd.OpenManager(t.TempDir(), privehd.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	adminH, err := admin.NewHandler(mgr, "tok", 0, admin.WithRecorder(recorder))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flight recorder entry", func() bool {
		req := httptest.NewRequest("GET", "/v1/debug/requests", nil)
		req.Header.Set("Authorization", "Bearer tok")
		w := httptest.NewRecorder()
		adminH.ServeHTTP(w, req)
		return w.Code == 200 && strings.Contains(w.Body.String(), hexID)
	})

	// Surface 3: the slow-request log line.
	waitFor(t, "slow-request log line", func() bool {
		s := logBuf.String()
		return strings.Contains(s, "slow request") && strings.Contains(s, hexID)
	})

	// Surface 4: an exemplar on the /metrics histogram, OpenMetrics only.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	w := httptest.NewRecorder()
	privehd.MetricsHandler().ServeHTTP(w, req)
	om := w.Body.String()
	if !strings.Contains(om, `trace_id="`+hexID+`"`) {
		t.Errorf("OpenMetrics scrape carries no exemplar for trace %s", hexID)
	}
}
