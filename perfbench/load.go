package main

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"privehd"
)

// call issues the k-th call of a run and reports how many queries it
// answered correctly and how many failed (errors or wrong answers).
type call func(k int) (ok, failed int)

// loader turns the workload into calls over the seeded query order.
type loader struct {
	f     *fleet
	o     *oracle
	order []int // seeded permutation of the held-out inputs
	// firstErr keeps the first failed call's error for the log.
	errOnce  sync.Once
	firstErr error
}

func (d *loader) fail(err error) { d.errOnce.Do(func() { d.firstErr = err }) }

// newCall returns the workload's call: Client.Predict on the k-th input
// in the run's order.
func (d *loader) newCall() call {
	n := len(d.order)
	return func(k int) (int, int) {
		i := d.order[k%n]
		label, _, err := d.f.client.Predict(d.o.inputs[i])
		return d.verdict(i, label, err)
	}
}

// batchVerdict checks the labels of a PredictBatch of the first batchSize
// inputs in the run's order.
func (d *loader) batchVerdict(labels []int, err error) (int, int) {
	if err == nil && len(labels) != batchSize {
		err = fmt.Errorf("PredictBatch answered %d of %d queries", len(labels), batchSize)
	}
	if err != nil {
		d.fail(err)
		return 0, batchSize
	}
	ok := 0
	for j, label := range labels {
		if d.o.check(d.order[j%len(d.order)], label) {
			ok++
		}
	}
	return ok, batchSize - ok
}

func (d *loader) verdict(i, label int, err error) (int, int) {
	if err != nil {
		d.fail(err)
		return 0, 1
	}
	if !d.o.check(i, label) {
		return 0, 1
	}
	return 1, 0
}

// window is what one measured window observed.
type window struct {
	ok      int // queries answered correctly
	failed  int // queries failed or answered wrongly
	calls   int
	elapsed time.Duration
	parts   []partStats // per consecutive part of the window
	// mallocs and allocBytes add up the MemStats deltas around each part's
	// calls, so the benchmark's own work between parts is left out.
	mallocs, allocBytes uint64
}

// partStats are one part's latency quantiles, throughput and p99 gap
// between a reply and the next call.
type partStats struct {
	p50, p90, p99, lagP99 time.Duration
	qps                   float64
}

// steady returns the medians over the window's parts of the p50, p90 and
// p99 latency and of the throughput.
func (w *window) steady() (p50, p90, p99 time.Duration, qps float64) {
	var a, b, c []time.Duration
	var d []float64
	for _, p := range w.parts {
		a, b, c, d = append(a, p.p50), append(b, p.p90), append(c, p.p99), append(d, p.qps)
	}
	return quantile(a, 0.5), quantile(b, 0.5), quantile(c, 0.5), quantile(d, 0.5)
}

// lagP99 is the median over the window's parts of each part's p99 gap
// between a reply and the next call.
func (w *window) lagP99() time.Duration {
	var a []time.Duration
	for _, p := range w.parts {
		a = append(a, p.lagP99)
	}
	return quantile(a, 0.5)
}

// samples hold one part's per-call latencies and gaps since the previous
// reply. They are reused from part to part.
type samples struct{ lats, lags []time.Duration }

// newSamples allocates room for n calls, so recording a sample inside a
// part does not allocate.
func newSamples(n int) samples {
	return samples{lats: make([]time.Duration, 0, n), lags: make([]time.Duration, 0, n)}
}

// closedLoop issues calls for d, each as soon as the previous one
// returns, recording into buf. Call numbers continue from *next, so
// consecutive parts walk on through the query order.
func closedLoop(d time.Duration, next *int, fn call, buf *samples) window {
	var w window
	buf.lats, buf.lags = buf.lats[:0], buf.lags[:0]
	start := time.Now()
	until := start.Add(d)
	prev := start
	for {
		t0 := time.Now()
		if !t0.Before(until) {
			break
		}
		ok, failed := fn(*next)
		*next++
		end := time.Now()
		buf.lats = append(buf.lats, end.Sub(t0))
		buf.lags = append(buf.lags, t0.Sub(prev))
		prev = end
		w.ok += ok
		w.failed += failed
		w.calls++
	}
	w.elapsed = time.Since(start)
	return w
}

func (w *window) qps() float64 { return float64(w.ok) / w.elapsed.Seconds() }

// counters are the /metrics series the benchmark reads around a window.
type counters struct {
	queries, readBytes, writtenBytes, frames       float64
	failovers, poolRetries, chunks, partialRetries float64
}

func (c counters) sub(o counters) counters {
	return counters{
		queries:        c.queries - o.queries,
		readBytes:      c.readBytes - o.readBytes,
		writtenBytes:   c.writtenBytes - o.writtenBytes,
		frames:         c.frames - o.frames,
		failovers:      c.failovers - o.failovers,
		poolRetries:    c.poolRetries - o.poolRetries,
		chunks:         c.chunks - o.chunks,
		partialRetries: c.partialRetries - o.partialRetries,
	}
}

// scrape reads the process's counters through privehd.MetricsHandler,
// the same exposition an operator's /metrics scrape gets.
func scrape() (counters, error) {
	rec := httptest.NewRecorder()
	privehd.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return counters{}, fmt.Errorf("scrape /metrics: HTTP %d", rec.Code)
	}
	var c counters
	fields := map[string]*float64{
		"privehd_server_read_bytes_total":            &c.readBytes,
		"privehd_server_written_bytes_total":         &c.writtenBytes,
		"privehd_server_requests_total":              &c.frames,
		"privehd_cluster_failovers_total":            &c.failovers,
		"privehd_pool_retries_total":                 &c.poolRetries,
		"privehd_cluster_batch_scatter_chunks_total": &c.chunks,
		"privehd_shard_partial_retries_total":        &c.partialRetries,
	}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return counters{}, fmt.Errorf("parse sample %q: %w", line, err)
		}
		if name == "privehd_server_queries_total" && strings.Contains(line, `model="`+modelName+`"`) {
			c.queries += v
		}
		if p, ok := fields[name]; ok {
			*p += v
		}
	}
	return c, sc.Err()
}

// audit checks the servers' own counters against the client tally: every
// answered query was counted once per shard group, and nothing failed
// over or retried in a fault-free run.
func audit(delta counters, answered, groups int) error {
	if want := float64(answered * groups); delta.queries != want {
		return fmt.Errorf("counter audit: servers counted %.0f queries, client tally %d × %d shard groups = %.0f",
			delta.queries, answered, groups, want)
	}
	if delta.failovers != 0 || delta.poolRetries != 0 || delta.partialRetries != 0 {
		return fmt.Errorf("counter audit: fault-free run saw %.0f failovers, %.0f pool retries, %.0f shard partial retries",
			delta.failovers, delta.poolRetries, delta.partialRetries)
	}
	return nil
}

// measured is a window with its counter deltas.
type measured struct {
	window
	delta  counters
	audErr error // nil when the counter audit passed
}

// measure runs one window between two scrapes of the counters.
func measure(d *loader, run func() (window, error)) (measured, error) {
	var m measured
	before, err := scrape()
	if err != nil {
		return m, err
	}
	wrong0 := d.o.wrong.Load()
	if m.window, err = run(); err != nil {
		return m, err
	}
	after, err := scrape()
	if err != nil {
		return m, err
	}
	m.delta = after.sub(before)
	// Wrong answers were still answered by the servers, so they count.
	answered := m.ok + int(d.o.wrong.Load()-wrong0)
	m.audErr = audit(m.delta, answered, d.f.w.groups())
	return m, nil
}

// quantile returns the q-quantile of ds by nearest rank; ds is sorted in
// place.
func quantile[T time.Duration | float64](ds []T, q float64) T {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(q*float64(len(ds))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
