package offload_test

import (
	"context"
	"net"
	"testing"
	"time"

	"privehd/internal/cluster"
	"privehd/internal/hdc"
	"privehd/internal/intscore"
	"privehd/internal/offload"
)

func TestPingingPoolConnectionNeverIdledOut(t *testing.T) {
	// A pooled connection that sits unused but is pinged in-band stays
	// inside the server's idle bound: it is never drained, and the pool
	// never redials.
	const idle = 200 * time.Millisecond
	m := hdc.NewModel(2, 4)
	m.Add(0, []float64{1, 1, 0, 0})
	m.Add(1, []float64{0, 0, 1, 1})
	srv := offload.NewServer(m)
	offload.SetIdleTimeout(srv, idle)
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

	pool := cluster.NewPool(cluster.PoolConfig{
		Network: "tcp", Addr: lis.Addr().String(), Hello: offload.Hello{Dim: 4},
		Size: 1, IdleTimeout: -1, PingInterval: idle / 8,
	})
	defer pool.Close()
	ctx := context.Background()
	q := offload.Query{Packed: intscore.Split([]int8{1, 1, 0, 0})}
	if _, _, err := pool.Classify(ctx, q); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * idle)
	if label, _, err := pool.Classify(ctx, q); err != nil || label != 0 {
		t.Fatalf("after %v of pings: label %d, err %v", 5*idle, label, err)
	}
	if st := pool.Stats(); st.Dials != 1 || st.Conns != 1 {
		t.Errorf("pool stats %+v: a pinged connection was closed and redialed", st)
	}
}
