package cluster

// Coverage for the fleet-wide batch scatter: a batch large enough to split
// fans out over healthy replicas in parallel chunks, results reassemble in
// query order, and a chunk whose replica dies fails over independently.

import (
	"context"
	"testing"

	"privehd/internal/offload"
)

func TestClusterBatchScatterSpreadsAcrossReplicas(t *testing.T) {
	const dim = 32
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim), startReplica(t, dim)}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp",
		Addrs:   []string{reps[0].addr, reps[1].addr, reps[2].addr},
		Hello:   offload.Hello{Dim: dim},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Alternate classes so a single ordering mistake in the chunked
	// reassembly flips a label.
	const n = 60
	batch := make([]offload.Query, n)
	for i := range batch {
		batch[i] = classQuery(dim, i%2)
	}
	labels, err := cl.ClassifyBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != n {
		t.Fatalf("got %d labels, want %d", len(labels), n)
	}
	for i, l := range labels {
		if l != i%2 {
			t.Fatalf("query %d classified %d, want %d (chunk reassembly out of order?)", i, l, i%2)
		}
	}
	// The scatter must actually spread: every replica answered part of the
	// batch, and the fleet answered exactly the batch.
	total := 0
	for i, r := range reps {
		served := r.Served()
		if served == 0 {
			t.Errorf("replica %d served nothing — batch not scattered", i)
		}
		total += served
	}
	if total != n {
		t.Errorf("fleet served %d queries, want %d", total, n)
	}
}

func TestClusterBatchScatterFailsOverDeadReplica(t *testing.T) {
	const dim = 32
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim), startReplica(t, dim)}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp",
		Addrs:   []string{reps[0].addr, reps[1].addr, reps[2].addr},
		Hello:   offload.Hello{Dim: dim},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Eagerly validate, then kill one replica before the scatter: its
	// chunks must fail over to the survivors without failing the batch.
	if _, err := cl.Hello(context.Background()); err != nil {
		t.Fatal(err)
	}
	reps[2].Kill()

	const n = 48
	batch := make([]offload.Query, n)
	for i := range batch {
		batch[i] = classQuery(dim, i%2)
	}
	labels, err := cl.ClassifyBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("batch with a dead replica: %v", err)
	}
	for i, l := range labels {
		if l != i%2 {
			t.Fatalf("query %d classified %d, want %d", i, l, i%2)
		}
	}
	if got := reps[0].Served() + reps[1].Served(); got != n {
		t.Errorf("survivors served %d queries, want %d", got, n)
	}
}

func TestClusterBatchSmallStaysSingleFlight(t *testing.T) {
	// A batch too small to split keeps the single-replica path: exactly one
	// replica answers all of it (chunking a 2-query batch across the fleet
	// would waste connections).
	const dim = 16
	reps := []*testReplica{startReplica(t, dim), startReplica(t, dim), startReplica(t, dim)}
	cl, err := NewCluster(ClusterConfig{
		Network: "tcp",
		Addrs:   []string{reps[0].addr, reps[1].addr, reps[2].addr},
		Hello:   offload.Hello{Dim: dim},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	labels, err := cl.ClassifyBatch(context.Background(), []offload.Query{classQuery(dim, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 || labels[0] != 0 {
		t.Fatalf("labels = %v", labels)
	}
	answered := 0
	for _, r := range reps {
		if r.Served() > 0 {
			answered++
		}
	}
	if answered != 1 {
		t.Errorf("%d replicas answered a 1-query batch, want 1", answered)
	}
}
