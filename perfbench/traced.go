package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privehd"
	"privehd/internal/intscore"
	"privehd/internal/offload"
)

// span is one timed call: the benchmark's own span around a call into a
// layer, or a wire-level span rebuilt from a privehd.OnTrace entry. Spans
// of one request share Req; times are nanoseconds since the run's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans and OnTrace entries in memory until the run ends.
type recorder struct {
	epoch   time.Time
	reqs    atomic.Int64
	mu      sync.Mutex
	spans   []span
	entries []privehd.TraceEntry
}

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// open starts a span whose end is set by finish.
func (r *recorder) open(name string, req int64, parent int32, start time.Time) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: r.at(start)})
	return id
}

func (r *recorder) finish(id int32, end time.Time) {
	r.mu.Lock()
	r.spans[id].End = r.at(end)
	r.mu.Unlock()
}

func (r *recorder) add(name string, req int64, parent int32, start, end time.Time) int32 {
	id := r.open(name, req, parent, start)
	r.finish(id, end)
	return id
}

// observe is the privehd.OnTrace hook.
func (r *recorder) observe(e privehd.TraceEntry) {
	r.mu.Lock()
	r.entries = append(r.entries, e)
	r.mu.Unlock()
}

// entriesSince returns the OnTrace entries recorded after the first n.
func (r *recorder) entriesSince(n int) []privehd.TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]privehd.TraceEntry(nil), r.entries[n:]...)
}

func (r *recorder) entryCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// tracedCall splits each workload call into the layer calls it is made
// of — Client.Predict becomes Edge.Prepare followed by PredictPrepared —
// with one span around each under a request root.
func (b *bench) tracedCall(r *recorder) call {
	d, n := b.d, len(b.d.order)
	return func(k int) (int, int) {
		req := r.reqs.Add(1)
		root := r.open("request", req, -1, time.Now())
		defer func() { r.finish(root, time.Now()) }()
		i := d.order[k%n]
		t0 := time.Now()
		q, err := b.f.edge.Prepare(d.o.inputs[i])
		r.add("edge.prepare", req, root, t0, time.Now())
		if err != nil {
			return d.verdict(i, 0, err)
		}
		var label int
		r.wrap("client.predict_prepared", req, root, func() { label, _, err = b.f.client.PredictPrepared(q) })
		return d.verdict(i, label, err)
	}
}

// wrap runs fn under a span of its own and nests under that span the
// OnTrace entries recorded while fn ran. Calls run one at a time, and
// every entry is recorded before the call that caused it returns, so the
// entries recorded during fn are exactly its own.
func (r *recorder) wrap(name string, req int64, parent int32, fn func()) time.Duration {
	mark := r.entryCount()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	id := r.add(name, req, parent, t0, t1)
	r.attach(id, r.entriesSince(mark))
	return t1.Sub(t0)
}

// attach turns the OnTrace entries of one call into spans under the call's
// span: a shard.coordinator span per scatter–gather with the per-group
// round trips inside it, and per wire round trip an offload.wire span with
// its client queue, the server's residency and, inside it, server queue
// and score.
func (r *recorder) attach(parent int32, entries []privehd.TraceEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	add := func(name string, parent int32, s, e int64) int32 {
		p := r.spans[parent]
		s = min(max(s, p.Start), p.End)
		id := int32(len(r.spans))
		r.spans = append(r.spans, span{ID: id, Parent: parent, Req: p.Req, Name: name, Start: s, End: max(s, min(e, p.End))})
		return id
	}
	bounds := func(e privehd.TraceEntry) (int64, int64) {
		end := r.at(e.Time)
		return end - e.TotalNs, end
	}
	wireParent := parent
	for _, e := range entries {
		if e.Op == "sharded-predict" {
			s, end := bounds(e)
			wireParent = add("shard.coordinator", parent, s, end)
		}
	}
	for _, e := range entries {
		if e.Op != "classify" && e.Op != "partial-scores" {
			continue
		}
		s, end := bounds(e)
		w := add("offload.wire", wireParent, s, end)
		s = r.spans[w].Start
		add("offload.client_queue", w, s, s+e.Local.QueueNs)
		// The server's residency sits between the two network halves.
		ss := s + e.Local.QueueNs + e.Local.NetworkNs/2
		srv := add("offload.server", w, ss, ss+e.ServerTotalNs)
		add("offload.server_queue", srv, ss, ss+e.Server.QueueNs)
		add("offload.server_score", srv, ss+e.Server.QueueNs, ss+e.Server.QueueNs+e.Server.ScoreNs)
	}
}

// selfTimes returns each span's duration minus the part of it its
// children cover, and the children of every span.
func selfTimes(spans []span) ([]time.Duration, [][]int32) {
	kids := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range kids[i] {
			iv = append(iv, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self, kids
}

// blockingPath collects, per span name, the self times of the spans a
// request waited on: from the root, the child that ended last, the child
// that ended last before that one started, and so on, recursively.
func blockingPath(spans []span, self []time.Duration, kids [][]int32, id int32, into map[string][]time.Duration) {
	into[spans[id].Name] = append(into[spans[id].Name], self[id])
	cs := append([]int32(nil), kids[id]...)
	sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].End > spans[cs[b]].End })
	bound := spans[id].End
	for _, c := range cs {
		if spans[c].End <= bound {
			blockingPath(spans, self, kids, c, into)
			bound = spans[c].Start
		}
	}
}

// writeSpans writes the span log, one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeCalls is how many calls each sequential per-layer probe times.
const probeCalls = 200

// batchSize is the size of the probes' PrepareBatch and PredictBatch
// calls.
const batchSize = 64

// p50 returns the median of ds (sorting it).
func p50(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// allocsPerCall is the average heap allocations and bytes of fn over n
// calls.
func allocsPerCall(n int, fn func(k int)) (allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < n; k++ {
		fn(k)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// probeShards is how many dimension shards the probe fleet splits into.
const probeShards = 2

// probeFleet serves the workload's model whole on 2 replicas and split
// into probeShards dimension shards, and connects a client of every
// topology to it, all with the workload's own edge.
type probeFleet struct {
	fleet
	single, pool, cluster, sharded preparedClient
	groups                         []*offload.Client
	shardOffsets                   [][2]int // per group: dimension offset and length
}

func (b *bench) newProbeFleet() (*probeFleet, error) {
	pf := &probeFleet{}
	whole, err := registries(b.f.model, 1)
	if err != nil {
		return nil, err
	}
	shards, err := registries(b.f.model, probeShards)
	if err != nil {
		return nil, err
	}
	wAddrs, err := serveRegistries(context.Background(), whole, 2, &pf.servers, &pf.wg)
	if err != nil {
		pf.close()
		return nil, err
	}
	sAddrs, err := serveRegistries(context.Background(), shards, 1, &pf.servers, &pf.wg)
	if err != nil {
		pf.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range []struct {
		to    *preparedClient
		topo  privehd.Topology
		addrs []string
	}{
		{&pf.single, privehd.TopologySingle, wAddrs[:1]},
		{&pf.pool, privehd.TopologyPool, wAddrs[:1]},
		{&pf.cluster, privehd.TopologyCluster, wAddrs},
		{&pf.sharded, privehd.TopologySharded, sAddrs},
	} {
		cl, err := privehd.Connect(ctx, privehd.Target{Addrs: c.addrs, Model: modelName, Topology: c.topo}, connectOptions(b.f.w, b.f.edge)...)
		if err != nil {
			pf.close()
			return nil, fmt.Errorf("probe %s client: %w", c.topo, err)
		}
		*c.to = cl.(preparedClient)
	}
	for _, addr := range sAddrs {
		g, err := offload.Dial(ctx, "tcp", addr, offload.Hello{Model: modelName})
		if err != nil {
			pf.close()
			return nil, fmt.Errorf("probe shard group: %w", err)
		}
		pf.groups = append(pf.groups, g)
		sh := g.Shard()
		pf.shardOffsets = append(pf.shardOffsets, [2]int{sh.DimOffset, sh.DimLen})
	}
	return pf, nil
}

func (pf *probeFleet) close() {
	for _, c := range []preparedClient{pf.single, pf.pool, pf.cluster, pf.sharded} {
		if c != nil {
			c.Close()
		}
	}
	for _, g := range pf.groups {
		g.Close()
	}
	pf.fleet.close()
}

// probes times each layer's exported calls one at a time on the run's
// inputs and adds the per-layer metrics they give to res. It returns how
// many probe answers disagreed with the oracle.
func (b *bench) probes(r *recorder, res *result) (int, error) {
	pf, err := b.newProbeFleet()
	if err != nil {
		return 0, err
	}
	defer pf.close()
	o, order := b.or, b.d.order
	x := func(k int) []float64 { return o.inputs[order[k%len(order)]] }
	q := func(k int) []float64 { return o.queries[order[k%len(order)]] }
	ref := func(k int) int { return o.ref[order[k%len(order)]] }
	wrong := 0
	// timed runs fn once under a root span of its own and returns its
	// duration.
	timed := func(name string, fn func()) time.Duration {
		return r.wrap(name, r.reqs.Add(1), -1, fn)
	}
	lats := func() []time.Duration { return make([]time.Duration, probeCalls) }
	var firstErr error
	check := func(k, label int, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err != nil || label != ref(k) {
			wrong++
		}
	}

	// Edge.
	prep := lats()
	for k := range prep {
		prep[k] = timed("edge.prepare", func() { b.f.edge.Prepare(x(k)) })
	}
	allocs, bytes := allocsPerCall(probeCalls, func(k int) { b.f.edge.Prepare(x(k)) })
	res.add("edge.prepare_us", us(p50(prep)), "us")
	res.add("edge.prepare_allocs", allocs, "count")
	res.add("edge.prepare_bytes", bytes, "B")
	batch := make([][]float64, batchSize)
	for j := range batch {
		batch[j] = x(j)
	}
	pb := make([]time.Duration, 9)
	for k := range pb {
		pb[k] = timed("edge.prepare_batch", func() { b.f.edge.PrepareBatch(batch) })
	}
	res.add("edge.prepare_batch_us_per_query", us(p50(pb))/batchSize, "us")

	// Offload: pack, then the single-connection round trip.
	pack := lats()
	for k := range pack {
		pack[k] = timed("offload.pack", func() { offload.PackQuery(q(k)) })
	}
	allocs, _ = allocsPerCall(probeCalls, func(k int) { offload.PackQuery(q(k)) })
	res.add("offload.pack_us", us(p50(pack)), "us")
	res.add("offload.pack_allocs", allocs, "count")
	mark := r.entryCount()
	rt := lats()
	for k := range rt {
		rt[k] = timed("probe.single", func() { l, _, err := pf.single.PredictPrepared(q(k)); check(k, l, err) })
	}
	var server []time.Duration
	for _, e := range r.entriesSince(mark) {
		if e.Op == "classify" {
			server = append(server, time.Duration(e.ServerTotalNs))
		}
	}
	res.add("offload.roundtrip_us", us(p50(rt)), "us")
	res.add("offload.wire_self_us", us(p50(rt)-p50(server)), "us")

	// Cluster layers: single, pool and cluster interleaved on the same
	// queries, so each difference is one layer's own cost.
	single, pool, cluster := lats(), lats(), lats()
	for k := range single {
		single[k] = timed("probe.single", func() { l, _, err := pf.single.PredictPrepared(q(k)); check(k, l, err) })
		pool[k] = timed("probe.pool", func() { l, _, err := pf.pool.PredictPrepared(q(k)); check(k, l, err) })
		cluster[k] = timed("probe.cluster", func() { l, _, err := pf.cluster.PredictPrepared(q(k)); check(k, l, err) })
	}
	res.add("cluster.pool_self_us", us(p50(pool)-p50(single)), "us")
	res.add("cluster.cluster_self_us", us(p50(cluster)-p50(pool)), "us")
	before, err := scrape()
	if err != nil {
		return 0, err
	}
	const chunkBatches = 4
	for k := 0; k < chunkBatches; k++ {
		timed("probe.cluster_batch", func() {
			labels, err := pf.cluster.PredictBatch(batch)
			_, failed := b.d.batchVerdict(labels, err)
			wrong += failed
		})
	}
	after, err := scrape()
	if err != nil {
		return 0, err
	}
	res.add("cluster.scatter_chunks_per_batch", after.sub(before).chunks/chunkBatches, "count")

	// Shard: the scatter–gather against its slowest group's own round trip.
	sharded, slowest := lats(), lats()
	for k := range sharded {
		sharded[k] = timed("probe.sharded", func() { l, _, err := pf.sharded.PredictPrepared(q(k)); check(k, l, err) })
		packed, _ := offload.PackQuery(q(k))
		for g, gc := range pf.groups {
			sub := packed[pf.shardOffsets[g][0] : pf.shardOffsets[g][0]+pf.shardOffsets[g][1]]
			d := timed("offload.partial_scores", func() {
				if _, _, err := gc.PartialScores([][]int8{sub}); err != nil {
					check(k, -1, err)
				}
			})
			slowest[k] = max(slowest[k], d)
		}
	}
	res.add("shard.gather_self_us", us(p50(sharded)-p50(slowest)), "us")

	// intscore: the served model's engine on an unmasked (dense kernel)
	// and a half-masked (gather kernel) query, and a half-dimension engine
	// scoring partials as a shard replica does.
	if err := b.intscoreProbes(res, timed, x); err != nil {
		return 0, err
	}

	// core: local prediction.
	local := lats()
	for k := range local {
		local[k] = timed("core.predict", func() { b.f.model.Predict(x(k)) })
	}
	res.add("core.predict_us", us(p50(local)), "us")
	if firstErr != nil {
		return wrong, fmt.Errorf("probe call failed: %w", firstErr)
	}
	return wrong, nil
}

func (b *bench) intscoreProbes(res *result, timed func(string, func()) time.Duration, x func(int) []float64) error {
	classes, err := b.f.model.ClassVectors()
	if err != nil {
		return err
	}
	dim := b.f.model.Dim()
	plain, err := b.f.model.Edge()
	if err != nil {
		return err
	}
	masked, err := b.f.model.Edge(privehd.WithQueryMask(dim / 2))
	if err != nil {
		return err
	}
	half := make([][]float64, len(classes))
	for l, c := range classes {
		half[l] = c[:dim/2]
	}
	eng, halfEng := intscore.Prepare(classes), intscore.Prepare(half)
	if !halfEng.PartialCapable() {
		return fmt.Errorf("half-dimension engine is not partial-capable")
	}
	packs := func(e *privehd.Edge) ([][]int8, error) {
		out := make([][]int8, probeCalls)
		for k := range out {
			v, err := e.Prepare(x(k))
			if err != nil {
				return nil, err
			}
			var ok bool
			if out[k], ok = offload.PackQuery(v); !ok {
				return nil, fmt.Errorf("edge query is not in the packed alphabet")
			}
		}
		return out, nil
	}
	dense, err := packs(plain)
	if err != nil {
		return err
	}
	gather, err := packs(masked)
	if err != nil {
		return err
	}
	scores, partials := make([]float64, len(classes)), make([]int64, len(classes))
	dl, gl, pl := make([]time.Duration, probeCalls), make([]time.Duration, probeCalls), make([]time.Duration, probeCalls)
	for k := 0; k < probeCalls; k++ {
		dl[k] = timed("intscore.scores_dense", func() { eng.ScoresPackedInto(dense[k], scores) })
		gl[k] = timed("intscore.scores_gather", func() { eng.ScoresPackedInto(gather[k], scores) })
		pl[k] = timed("intscore.partials", func() { halfEng.PartialsPackedInto(gather[k][:dim/2], partials) })
	}
	res.add("intscore.scores_dense_us", us(p50(dl)), "us")
	res.add("intscore.scores_gather_us", us(p50(gl)), "us")
	res.add("intscore.partials_us", us(p50(pl)), "us")
	return nil
}

// traced runs the workload untraced and then traced for half the window
// each, runs the per-layer probes, and reports the per-layer metrics.
func (b *bench) traced(log io.Writer) (*result, error) {
	half := b.o.window / 2
	plain, err := measure(b.d, func() (window, error) { return b.load(half, b.d.newCall(), nil) })
	if err != nil {
		return nil, err
	}
	r := &recorder{epoch: b.f.setupStart}
	b.recordSetup(r)
	privehd.SetTraceSampling(1)
	privehd.OnTrace(r.observe)
	defer func() {
		privehd.OnTrace(nil)
		privehd.SetTraceSampling(0)
	}()
	mainSpans := len(r.spans)
	tr, err := measure(b.d, func() (window, error) { return b.load(half, b.tracedCall(r), nil) })
	if err != nil {
		return nil, err
	}
	mainEntries := r.entryCount()

	res := &result{}
	wrong, perr := b.probes(r, res)
	privehd.OnTrace(nil)
	privehd.SetTraceSampling(0)
	if err := b.verdict(res, plain, log); err != nil {
		return nil, err
	}
	plainOK, attempted, failed := res.Correct, res.Attempted, res.Failed
	if err := b.verdict(res, tr, log); err != nil {
		return nil, err
	}
	res.Correct = res.Correct && plainOK && wrong == 0 && perr == nil
	res.Attempted += attempted
	res.Failed += failed + wrong
	if perr != nil {
		fmt.Fprintln(log, perr)
	}
	if wrong > 0 {
		fmt.Fprintf(log, "probes: %d answers disagreed with the oracle\n", wrong)
	}

	// Wire stages from the main traced window's OnTrace entries.
	stages := map[string][]time.Duration{}
	for _, e := range r.entriesSince(0)[:mainEntries] {
		if e.Op != "classify" && e.Op != "partial-scores" {
			continue
		}
		stages["client_queue"] = append(stages["client_queue"], time.Duration(e.Local.QueueNs))
		stages["network"] = append(stages["network"], time.Duration(e.Local.NetworkNs))
		stages["server_queue"] = append(stages["server_queue"], time.Duration(e.Server.QueueNs))
		stages["server_score"] = append(stages["server_score"], time.Duration(e.Server.ScoreNs))
		stages["server_total"] = append(stages["server_total"], time.Duration(e.ServerTotalNs))
	}
	if len(stages["server_total"]) == 0 {
		return nil, fmt.Errorf("traced window produced no wire trace entries")
	}

	self, kids := selfTimes(r.spans)
	onPath := map[string][]time.Duration{}
	var roots []time.Duration
	for _, s := range r.spans[mainSpans:] {
		if s.Name == "request" {
			roots = append(roots, s.dur())
			blockingPath(r.spans, self, kids, s.ID, onPath)
		}
	}
	tracedP50 := p50(roots)
	var pathSum time.Duration
	fmt.Fprintf(log, "%-28s %8s %12s\n", "blocking-path layer", "spans", "p50 self us")
	for _, name := range sortedKeys(onPath) {
		d := p50(onPath[name])
		pathSum += d
		fmt.Fprintf(log, "%-28s %8d %12.2f\n", name, len(onPath[name]), us(d))
	}

	for _, st := range []string{"client_queue", "network", "server_queue", "server_score", "server_total"} {
		res.add("offload."+st+"_us", us(p50(stages[st])), "us")
	}
	q := float64(plain.ok)
	res.add("offload.req_bytes_per_query", plain.delta.readBytes/q, "B")
	res.add("offload.reply_bytes_per_query", plain.delta.writtenBytes/q, "B")
	res.add("offload.frames_per_query", plain.delta.frames/q, "count")
	res.add("cluster.retries_per_query", plain.delta.poolRetries/q, "count")
	res.add("cluster.failovers_per_query", plain.delta.failovers/q, "count")
	res.add("shard.partial_retries_per_query", plain.delta.partialRetries/q, "count")
	setup := func(f func(phases) time.Duration) float64 {
		xs := make([]float64, len(b.setups))
		for i, p := range b.setups {
			xs[i] = f(p).Seconds()
		}
		return median(xs)
	}
	res.add("hdc.train_s", setup(func(p phases) time.Duration { return p.train }), "s")
	res.add("hdc.save_load_s", setup(func(p phases) time.Duration { return p.saveLoad }), "s")
	res.add("registry.publish_s", setup(func(p phases) time.Duration { return p.publish }), "s")
	res.add("offload.connect_s", setup(func(p phases) time.Duration { return p.connect }), "s")
	res.add("loadgen.lag_p99_ms", ms(plain.lagP99()), "ms")
	res.add("trace.latency_p50_ms", ms(tracedP50), "ms")
	_, _, _, plainQPS := plain.steady()
	_, _, _, tracedQPS := tr.steady()
	overhead := 100 * (plainQPS - tracedQPS) / plainQPS
	res.add("trace.overhead_pct", overhead, "%")
	res.add("trace.blocking_path_pct", 100*float64(pathSum)/float64(tracedP50), "%")
	fmt.Fprintf(log, "blocking-path self times account for %.1f%% of the traced latency p50 %.4f ms (tracing overhead %.1f%%)\n",
		res.Metrics["trace.blocking_path_pct"].Value, ms(tracedP50), overhead)
	if err := writeSpans(b.o.spans, r.spans); err != nil {
		return nil, fmt.Errorf("write span log: %w", err)
	}
	return res, nil
}

// recordSetup adds the last set-up's phases as spans.
func (b *bench) recordSetup(r *recorder) {
	p := b.f.phases
	t := b.f.setupStart
	root := r.add("setup", r.reqs.Add(1), -1, t, t.Add(p.total()))
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"hdc.train", p.train}, {"hdc.save_load", p.saveLoad}, {"registry.publish", p.publish},
		{"offload.serve", p.serve}, {"offload.connect", p.connect},
	} {
		r.add(ph.name, r.spans[root].Req, root, t, t.Add(ph.d))
		t = t.Add(ph.d)
	}
}

func sortedKeys(m map[string][]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
