package privehd_test

// Wire-level acceptance: what one query costs on the wire, and what a
// server-side eavesdropper can recover from each of the edge's defences.

import (
	"context"
	"math"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"privehd"
)

// scrapeCounter reads one unlabeled counter from the process metrics.
func scrapeCounter(t *testing.T, name string) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	privehd.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if fields := strings.Fields(line); len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("unparseable exposition line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func TestWireBytesPerPackedQuery(t *testing.T) {
	// A pooled Predict at D=4000 ships its 1-bit query as two bit-planes:
	// the server reads at most D/4 bytes plus a small fixed frame overhead
	// per query.
	const dim, queries = 4000, 20
	pipe, X, _ := toyPipeline(t, privehd.WithDim(dim))
	addr, _, cleanup := startPipelineServer(t, pipe)
	defer cleanup()
	c, err := privehd.Connect(context.Background(),
		privehd.Target{Addrs: []string{addr}, Topology: privehd.TopologyPool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Predict(X[0]); err != nil { // the handshake is not per-query
		t.Fatal(err)
	}
	before := scrapeCounter(t, "privehd_server_read_bytes_total")
	for i := 0; i < queries; i++ {
		if _, _, err := c.Predict(X[i%len(X)]); err != nil {
			t.Fatal(err)
		}
	}
	perQuery := float64(scrapeCounter(t, "privehd_server_read_bytes_total")-before) / queries
	if limit := float64(dim/4 + 64); perQuery > limit {
		t.Errorf("server read %.0f B per packed query at D=%d, want ≤ %.0f", perQuery, dim, limit)
	}
	t.Logf("%.0f B on the wire per D=%d packed query", perQuery, dim)
}

func TestWiretapSeesExactlyEachDefence(t *testing.T) {
	// One model served behind a wiretap, queried with the same held-out
	// inputs through three edges: raw (WithRawQueries), 1-bit, and 1-bit
	// with half the dimensions masked. The tap must see exactly what each
	// edge's Prepare produces, bit for bit, and the eavesdropper's Eq. 10
	// reconstruction must get strictly worse with each defence (Figs. 6
	// and 9).
	const dim, n = 2000, 10
	data, err := privehd.LoadDataset("mnist-s", true)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 10 inverts the scalar encoding (Eq. 2a), the one Figs. 6 and 9
	// attack.
	pipe, err := privehd.New(privehd.WithDim(dim), privehd.WithLevels(16), privehd.WithSeed(5),
		privehd.WithEncoding(privehd.Scalar), privehd.WithQuantizer("full"), privehd.WithRetrain(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Train(data.TrainX, data.TrainY); err != nil {
		t.Fatal(err)
	}
	srv, err := privehd.NewServer(pipe)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tapped, tap := privehd.Tap(lis)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), tapped) }()
	defer func() {
		srv.Close()
		<-done
	}()

	X := data.TestX[:n]
	defences := []struct {
		name string
		opts []privehd.Option
	}{
		{"raw", []privehd.Option{privehd.WithRawQueries()}},
		{"1-bit", nil},
		{"1-bit + mask D/2", []privehd.Option{privehd.WithQueryMask(dim / 2)}},
	}
	psnr := make([]float64, len(defences))
	for k, d := range defences {
		edge, err := pipe.Edge(d.opts...)
		if err != nil {
			t.Fatal(err)
		}
		c, err := dialEdge(lis.Addr().String(), "", edge)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.PredictBatch(X); err != nil {
			t.Fatal(err)
		}
		c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for len(tap.Queries()) < (k+1)*n && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		seen := tap.Queries()
		if len(seen) != (k+1)*n {
			t.Fatalf("%s: tap holds %d queries, want %d", d.name, len(seen), (k+1)*n)
		}
		for i, x := range X {
			want, err := edge.Prepare(x)
			if err != nil {
				t.Fatal(err)
			}
			got := seen[k*n+i]
			if len(got) != len(want) {
				t.Fatalf("%s query %d: tapped %d dims, want %d", d.name, i, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s query %d dim %d: tapped %v, Prepare %v", d.name, i, j, got[j], want[j])
				}
			}
			recon, err := edge.Reconstruct(got)
			if err != nil {
				t.Fatal(err)
			}
			psnr[k] += privehd.MeasureReconstruction(edge.QuantizeTruth(x), recon).PSNR / n
		}
		t.Logf("%-16s mean reconstruction PSNR %.2f dB", d.name, psnr[k])
	}
	for k := 1; k < len(defences); k++ {
		if !(psnr[k] < psnr[k-1]) {
			t.Errorf("%s PSNR %.2f dB is not below %s's %.2f dB", defences[k].name, psnr[k], defences[k-1].name, psnr[k-1])
		}
	}
}
