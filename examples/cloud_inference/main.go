// Cloud inference: the full §III-C story over real TCP connections with
// the versioned privehd protocol, at production MLaaS shape. One listener
// serves a registry of named models; an edge client picks its model by
// name and auto-configures its encoder from the handshake (no
// hand-matched flags); queries are 1-bit quantized and masked before they
// leave the device; an eavesdropper taps the server's side of the wire and
// tries the Eq. 10 reconstruction on what it sees; the served model is hot-swapped for a
// better one while the client's connection stays up; and finally the
// registry is scaled out to a 3-replica fleet that a pooled, pipelined
// cluster client balances over — discovering the models over the wire,
// surviving a replica kill mid-traffic, and watching the prober eject the
// corpse. Every client is built by privehd.Connect, so the topology —
// single connection, replica cluster, or the sharded fleet
// that splits one model across dimension slices and scatter–gathers
// bit-identical predictions — is a Target field, not a code path. The
// finale is the management plane: every publication went
// through a durable on-disk store, so the whole deployment is killed and
// restarted into exactly the state it had — then an authenticated HTTP
// rollback takes the served model back a version under live traffic
// without dropping a request.
//
//	go run ./examples/cloud_inference
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privehd"
)

func main() {
	const (
		dim    = 6000
		levels = 16
		seed   = 99
	)
	// A tenth of the full MNIST-S corpus (60 samples per digit) keeps the
	// demo fast while giving the model enough data for solid margins; the
	// "better" publication sees three times as much.
	full, err := privehd.LoadDataset("mnist-s", false)
	if err != nil {
		log.Fatal(err)
	}
	data := full.Subset(0.1)
	more := full.Subset(0.3)

	// --- Cloud: train two full-precision models and serve both from one
	// listener; "mnist" (the first published) is the default. Publications
	// go through a Manager bound to an on-disk store, so each one is
	// durable — the restart act at the end replays this exact state.
	pipeline := train(data.TrainX, data.TrainY, dim, levels, seed, "full")
	better := train(more.TrainX, more.TrainY, dim, levels, seed, "full")

	storeDir, err := os.MkdirTemp("", "privehd-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)
	registry := privehd.NewRegistry()
	manager, err := privehd.OpenManager(storeDir, registry)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := manager.Publish("mnist", pipeline); err != nil {
		log.Fatal(err)
	}
	if _, err := manager.Publish("mnist-large", better); err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// The eavesdropper sits on the cloud side of the wire: every query the
	// server reads from this listener is also decoded for it.
	tapped, tap := privehd.Tap(lis)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := privehd.ServeRegistry(ctx, tapped, registry, privehd.WithServerWorkers(4)); err != nil {
			log.Println("serve:", err)
		}
	}()
	fmt.Printf("cloud: serving %d models on %s (protocol v%d)\n",
		registry.Len(), lis.Addr(), privehd.ProtocolVersion)
	for _, m := range registry.Models() {
		fmt.Printf("  %-12s v%d  D=%d, %d classes, %s encoding\n",
			m.Name, m.Version, m.Dim, m.Classes, m.Encoding)
	}

	// --- Edge: dial the "mnist" model by name. The edge encoder
	// (dimension, levels, seed, encoding) is auto-configured from the
	// ServerHello — shared public setup, so nothing is leaked — and the
	// §III-C defences layer on top: 1-bit quantization (default) plus
	// masking 1/6 of the dimensions. MNIST tolerates only modest masking
	// (paper Fig. 9: "accuracy loss is abrupt"), but even a 1k-dim mask
	// pushes reconstruction below ~15 dB.
	remote, err := privehd.Connect(ctx, privehd.Target{
		Addrs:    []string{lis.Addr().String()},
		Model:    "mnist",
		Topology: privehd.TopologySingle,
	}, privehd.WithEdgeOptions(privehd.WithQueryMask(dim/6)))
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	edge := remote.Edge()
	fmt.Printf("edge: auto-configured from the handshake (model \"mnist\", D=%d, %d features)\n",
		edge.Dim(), edge.Features())

	n := 20
	if n > len(data.TestX) {
		n = len(data.TestX)
	}
	labels, err := remote.PredictBatch(data.TestX[:n])
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, label := range labels {
		if label == data.TestY[i] {
			correct++
		}
	}
	fmt.Printf("edge: %d/%d queries classified correctly through the obfuscated channel\n", correct, n)

	// Give the asynchronous tap a moment to drain.
	for len(tap.Queries()) < n {
		time.Sleep(10 * time.Millisecond)
	}

	// --- Eavesdropper: reconstruct the first query. ---------------------
	truth := edge.QuantizeTruth(data.TestX[0])
	stolen := tap.Queries()[0]
	obfRecon, err := edge.Reconstruct(stolen)
	if err != nil {
		log.Fatal(err)
	}
	cleanRecon, err := edge.Reconstruct(edge.Encode(data.TestX[0]))
	if err != nil {
		log.Fatal(err)
	}
	obf := privehd.MeasureReconstruction(truth, obfRecon)
	clean := privehd.MeasureReconstruction(truth, cleanRecon)
	fmt.Printf("eavesdropper: clean-encoding PSNR %.1f dB → obfuscated PSNR %.1f dB (MSE ×%.1f)\n",
		clean.PSNR, obf.PSNR, obf.MSE/clean.MSE)

	fmt.Println("\nwhat the eavesdropper sees (original | stolen reconstruction):")
	fmt.Println(privehd.SideBySide(
		privehd.RenderASCII(truth, data.ImageWidth),
		privehd.RenderASCII(obfRecon, data.ImageWidth), " | "))

	// --- Hot swap: publish the better model under "mnist" while the
	// client's connection stays up. The next request frame is answered by
	// the new publication; nothing reconnects, no query fails. Publishing
	// through the manager commits v2 to the store before the registry
	// serves it, so a crash at any instant keeps a consistent state.
	if _, err := manager.Publish("mnist", better); err != nil {
		log.Fatal(err)
	}
	labels, err = remote.PredictBatch(data.TestX[:n])
	if err != nil {
		log.Fatal(err)
	}
	swapped := 0
	for i, label := range labels {
		if label == data.TestY[i] {
			swapped++
		}
	}
	fmt.Printf("cloud: hot-swapped \"mnist\" to v2 under live traffic; same connection now answers %d/%d\n",
		swapped, n)

	// --- Scale out: two more replicas serve the same registry, and a
	// cluster client multiplexes concurrent callers over pooled, pipelined
	// connections with least-in-flight balancing across all three. When a
	// replica dies mid-traffic, its requests fail over transparently and
	// the health prober ejects it.
	addrs := []string{lis.Addr().String()}
	extras := make([]*privehd.Server, 2)
	for i := range extras {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := privehd.NewRegistryServer(registry, privehd.WithServerWorkers(4))
		extras[i] = srv
		go func() {
			if err := srv.Serve(ctx, l); err != nil {
				log.Println("replica serve:", err)
			}
		}()
		addrs = append(addrs, l.Addr().String())
	}
	clusterClient, err := privehd.Connect(ctx, privehd.Target{
		Addrs:    addrs,
		Model:    "mnist",
		Topology: privehd.TopologyCluster,
	},
		privehd.WithConnectProbeInterval(200*time.Millisecond),
		privehd.WithEdgeOptions(privehd.WithQueryMask(dim/6)))
	if err != nil {
		log.Fatal(err)
	}
	defer clusterClient.Close()
	fmt.Printf("\ncloud: scaled out to %d replicas; cluster client auto-configured its edge\n", len(addrs))

	// Model discovery over the wire (list-models op): no out-of-band config.
	listed, err := clusterClient.ListModels()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("edge: discovered served models over the wire:")
	for _, m := range listed {
		def := ""
		if m.Default {
			def = "  (default)"
		}
		fmt.Printf("  %-12s v%d  D=%d%s\n", m.Name, m.Version, m.Dim, def)
	}

	// Concurrent callers hammer the fleet; one replica is killed mid-run.
	const callers = 8
	perCaller := n
	var ok32, failed32 atomic.Int64
	var wg sync.WaitGroup
	half := make(chan struct{})
	var halfOnce sync.Once
	var progress atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				label, _, err := clusterClient.Predict(data.TestX[i])
				if err != nil {
					failed32.Add(1)
				} else if label == data.TestY[i] {
					ok32.Add(1)
				}
				if progress.Add(1) == int64(callers*perCaller/2) {
					halfOnce.Do(func() { close(half) })
				}
			}
		}()
	}
	go func() {
		<-half
		extras[1].Close() // kill the third replica under load
	}()
	wg.Wait()
	fmt.Printf("cluster: %d callers × %d queries with a replica killed mid-run: %d correct, %d failed\n",
		callers, perCaller, ok32.Load(), failed32.Load())
	// Replica health as an operator sees it: the cluster's /metrics gauges
	// (1 admitted, 0 ejected).
	rec := httptest.NewRecorder()
	privehd.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "privehd_cluster_replica_healthy{") {
			fmt.Println("  " + line)
		}
	}

	// --- Shard: the protocol splits one logical model across slice
	// replicas. Integer class vectors make this exact — they give integer
	// partial dot products, and integers sum associatively (a model whose
	// classes are not integers is served in fixed point, at one scale its
	// slices share) — so the dimension halves below, each served from its
	// own listener whose handshake advertises its slice, answer
	// bit-identically to a whole-model server. Connect with the default
	// auto topology sniffs the shard descriptors and builds the
	// scatter–gather client; nothing but the Target changes.
	quantized := train(data.TrainX, data.TrainY, dim, levels, seed, "2bit")
	wholeReg := privehd.NewRegistry()
	if err := wholeReg.Register("mnist-q", quantized); err != nil {
		log.Fatal(err)
	}
	wholeLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go privehd.ServeRegistry(ctx, wholeLis, wholeReg)

	var shardAddrs []string
	for i := 0; i < 2; i++ {
		shardReg := privehd.NewRegistry()
		err := shardReg.RegisterShard("mnist-q", quantized, privehd.ShardSlice{
			DimOffset: i * dim / 2, DimLen: dim / 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go privehd.ServeRegistry(ctx, sl, shardReg)
		shardAddrs = append(shardAddrs, sl.Addr().String())
	}

	wholeClient, err := privehd.Connect(ctx, privehd.Target{
		Addrs: []string{wholeLis.Addr().String()}, Model: "mnist-q",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer wholeClient.Close()
	shardClient, err := privehd.Connect(ctx, privehd.Target{
		Addrs: shardAddrs, Model: "mnist-q",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer shardClient.Close()
	fmt.Printf("\ncloud: \"mnist-q\" split across %d shard replicas:\n", len(shardAddrs))
	for _, s := range shardClient.Shards() {
		fmt.Printf("  %s\n", s.String())
	}

	identical := 0
	for i := 0; i < n; i++ {
		wLabel, wScores, err := wholeClient.Predict(data.TestX[i])
		if err != nil {
			log.Fatal(err)
		}
		sLabel, sScores, err := shardClient.Predict(data.TestX[i])
		if err != nil {
			log.Fatal(err)
		}
		same := wLabel == sLabel
		for c := range wScores {
			same = same && wScores[c] == sScores[c]
		}
		if same {
			identical++
		}
	}
	fmt.Printf("edge: %d/%d sharded predictions bit-identical to whole-model serving (labels and every score)\n",
		identical, n)

	// --- Restart recovery: kill the whole deployment and boot a fresh one
	// from the store. Every publication above was durable, so the new
	// registry comes back with the same models, active versions ("mnist"
	// at v2 — the hot swap survived) and default, without retraining.
	clusterClient.Close()
	remote.Close()
	cancel()
	time.Sleep(50 * time.Millisecond) // let the old listeners die

	registry2 := privehd.NewRegistry()
	manager2, err := privehd.OpenManager(storeDir, registry2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncloud: restarted from %s — recovered state:\n", storeDir)
	for _, st := range manager2.Status() {
		def := ""
		if st.Default {
			def = "  (default)"
		}
		fmt.Printf("  %-12s active v%d of %d stored version(s)%s\n",
			st.Name, st.ActiveVersion, len(st.Versions), def)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	dataLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	adminLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := privehd.ServeRegistry(ctx2, dataLis, registry2, privehd.WithServerWorkers(4)); err != nil {
			log.Println("serve:", err)
		}
	}()
	const adminToken = "cloud-inference-demo"
	go func() {
		if err := privehd.ServeAdmin(ctx2, adminLis, manager2, adminToken); err != nil {
			log.Println("admin:", err)
		}
	}()

	// --- Rollback over HTTP: an operator decides v2 was a mistake and rolls
	// "mnist" back over the authenticated HTTP management plane while an
	// edge client keeps querying. The RCU swap means no request is dropped:
	// frames in flight finish on v2, later frames score on v1.
	remote2, err := privehd.Connect(ctx2, privehd.Target{
		Addrs:    []string{dataLis.Addr().String()},
		Model:    "mnist",
		Topology: privehd.TopologySingle,
	}, privehd.WithEdgeOptions(privehd.WithQueryMask(dim/6)))
	if err != nil {
		log.Fatal(err)
	}
	defer remote2.Close()
	fmt.Println("edge: reconnected to the recovered \"mnist\"")

	trafficDone := make(chan int)
	stopTraffic := make(chan struct{})
	go func() {
		answered := 0
		for i := 0; ; i++ {
			select {
			case <-stopTraffic:
				trafficDone <- answered
				return
			default:
			}
			if _, _, err := remote2.Predict(data.TestX[i%n]); err != nil {
				log.Fatal("query dropped during rollback: ", err)
			}
			answered++
		}
	}()

	body := adminCall(adminLis.Addr().String(), adminToken, "POST", "/v1/models/mnist/rollback", nil)
	var rolled struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(body, &rolled); err != nil {
		log.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // traffic across the swap
	close(stopTraffic)
	answered := <-trafficDone
	fmt.Printf("admin: rolled \"mnist\" back to v%d over HTTP; %d live queries answered across the swap, none dropped\n",
		rolled.Version, answered)

	// The listing shows the durable result: v1 active again, history kept,
	// live served counters ticking.
	body = adminCall(adminLis.Addr().String(), adminToken, "GET", "/v1/models", nil)
	var listing struct {
		Models []struct {
			Name    string `json:"name"`
			Active  int    `json:"active_version"`
			Served  uint64 `json:"served"`
			History []any  `json:"versions"`
		} `json:"models"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		log.Fatal(err)
	}
	fmt.Println("admin: GET /v1/models after the rollback:")
	for _, m := range listing.Models {
		fmt.Printf("  %-12s active v%d  %d version(s) stored  %d queries served\n",
			m.Name, m.Active, len(m.History), m.Served)
	}
}

// adminCall performs one authenticated management-plane request, failing
// the demo on any non-2xx answer.
func adminCall(addr, token, method, path string, payload []byte) []byte {
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		log.Fatalf("admin %s %s: %d: %s", method, path, resp.StatusCode, body)
	}
	return body
}

// train fits one model under the given quantization scheme ("full" keeps
// full precision); clients obfuscate on their side ("our technique does
// not need to modify or access the trained model").
func train(X [][]float64, y []int, dim, levels int, seed uint64, quant string) *privehd.Pipeline {
	pipeline, err := privehd.New(
		privehd.WithDim(dim),
		privehd.WithLevels(levels),
		privehd.WithSeed(seed),
		privehd.WithEncoding(privehd.Scalar),
		privehd.WithQuantizer(quant),
		privehd.WithRetrain(0),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := pipeline.Train(X, y); err != nil {
		log.Fatal(err)
	}
	return pipeline
}
