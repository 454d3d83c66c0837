// Command perfbench is the repository's serving benchmark. It stands up an
// in-process Prive-HD fleet at paper geometry (617 features × 26 classes,
// D = 4000 or 10 000), drives one workload through the public client
// surface (privehd.Connect → Client.Predict / PredictPrepared), checks
// every answer against a local oracle and audits the servers' own
// counters. It prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics, one per line, and as its last line one JSON object:
//
//	{"correct": true, "attempted": …, "failed": 0, "metrics": {"name": {"value": …, "unit": "…"}}}
//
// Run it from the repository root with perfbench/run.sh, which builds it;
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"privehd/internal/dataset"
)

type options struct {
	workload workload
	seed     uint64
	window   time.Duration
	trace    bool
	setups   int    // set-ups per run; setup_s is their median
	spans    string // traced mode: span log path
}

// setupRuns is how many times a run sets the fleet up; setup_s is the
// median of their times.
const setupRuns = 3

func parseArgs(argv []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o       options
		name    string
		seconds float64
		traced  int
	)
	fs.StringVar(&name, "workload", "", "workload name (predict-d4k, sharded-d10k)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the dataset and the query order")
	fs.Float64Var(&seconds, "seconds", 25, "length of the measured window")
	fs.IntVar(&traced, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans.jsonl", "traced mode: where the span log is written")
	if err := fs.Parse(argv); err != nil {
		return o, err
	}
	var err error
	if o.workload, err = workloadByName(name); err != nil {
		return o, err
	}
	if seconds <= 0 || (traced != 0 && traced != 1) {
		return o, errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	o.setups = setupRuns
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = traced == 1
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(3)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	names     []string          // print order
}

func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.names = append(r.names, name)
}

// print writes one "name value unit" line per metric, then the JSON line.
func (r *result) print(w io.Writer) error {
	for _, name := range r.names {
		m := r.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		fmt.Fprintf(w, "%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// bench is one run: the generated inputs, the fleet of the last set-up,
// its oracle and the load loop.
type bench struct {
	o      options
	ds     *dataset.Dataset
	rng    *rand.Rand
	f      *fleet
	or     *oracle
	d      *loader
	setups []phases
	heapMB float64
	next   int     // next call number, shared by every window
	buf    samples // per-part samples, sized after the warm-up
}

// newBench generates the inputs, sets the fleet up o.setups times (keeping
// the last) and builds the oracle.
func newBench(o options, log io.Writer) (*bench, error) {
	ds, err := makeDataset(o.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, ds: ds, rng: rand.New(rand.NewSource(int64(o.seed)))}
	for i := 0; i < o.setups; i++ {
		if b.f != nil {
			b.f.close()
		}
		if b.f, err = setUp(o.workload, ds); err != nil {
			return nil, err
		}
		b.setups = append(b.setups, b.f.phases)
		fmt.Fprintf(log, "set-up %d: %.3fs (train %.3fs)\n", i+1, b.f.phases.total().Seconds(), b.f.phases.train.Seconds())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.heapMB = float64(mem.HeapInuse) / 1e6
	if b.or, err = newOracle(b.f, ds); err != nil {
		b.close()
		return nil, err
	}
	b.d = &loader{f: b.f, o: b.or, order: b.rng.Perm(len(ds.TestX))}
	return b, nil
}

func (b *bench) close() { b.f.close() }

// subWindows is how many consecutive parts a window is measured in. The
// time metrics are medians over the parts: the host's cores are shared,
// and a neighbour's load slowed a fixed loop by up to half for seconds at
// a time. At --seconds 25 each part is 1.25 s, long enough for every
// workload's part to hold over a thousand calls.
const subWindows = 20

// load drives a closed loop of one caller for d in subWindows parts,
// calling between (when not nil) after each part. Only the parts' calls
// count towards the window's allocations.
func (b *bench) load(d time.Duration, fn call, between func() error) (window, error) {
	var total window
	start := time.Now()
	for i := 0; i < subWindows; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		part := closedLoop(d/subWindows, &b.next, fn, &b.buf)
		runtime.ReadMemStats(&m1)
		total.mallocs += m1.Mallocs - m0.Mallocs
		total.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		total.parts = append(total.parts, partStats{
			p50: quantile(b.buf.lats, 0.50), p90: quantile(b.buf.lats, 0.90), p99: quantile(b.buf.lats, 0.99),
			lagP99: quantile(b.buf.lags, 0.99), qps: part.qps(),
		})
		total.ok += part.ok
		total.failed += part.failed
		total.calls += part.calls
		if between != nil {
			if err := between(); err != nil {
				return total, err
			}
		}
	}
	total.elapsed = time.Since(start)
	return total, nil
}

// warmup lets connections, pools and caches settle before anything is
// timed, then sizes the sample buffers for twice the call rate it saw.
func (b *bench) warmup() {
	d := b.o.window / 5
	d = max(100*time.Millisecond, min(d, time.Second))
	w, _ := b.load(d, b.d.newCall(), nil)
	rate := float64(w.calls) / w.elapsed.Seconds()
	b.buf = newSamples(int(2*rate*(b.o.window/subWindows).Seconds()) + 1024)
}

// localCalls is how many local Pipeline.Predict calls the local p50 samples
// after each part of the window.
const localCalls = 100

// localP50 times localCalls local Pipeline.Predict calls on the served
// model over the run's inputs and returns their p50. It collects the
// garbage of the part before first, so the collector does not run beside
// the sample.
func (b *bench) localP50() (time.Duration, error) {
	runtime.GC()
	lats := make([]time.Duration, localCalls)
	for k := range lats {
		x := b.or.inputs[b.d.order[k%len(b.d.order)]]
		t0 := time.Now()
		if _, err := b.f.model.Predict(x); err != nil {
			return 0, err
		}
		lats[k] = time.Since(t0)
	}
	return quantile(lats, 0.5), nil
}

func run(o options, log io.Writer) (*result, error) {
	b, err := newBench(o, log)
	if err != nil {
		return nil, err
	}
	defer b.close()
	b.warmup()
	if o.trace {
		return b.traced(log)
	}
	return b.endToEnd(log)
}

// verdict fills the result's correctness fields from a measured window.
func (b *bench) verdict(res *result, m measured, log io.Writer) error {
	res.Attempted, res.Failed = m.ok+m.failed, m.failed
	if m.ok == 0 {
		return fmt.Errorf("no query succeeded (%d failed; first error: %v)", m.failed, b.d.firstErr)
	}
	res.Correct = m.failed == 0 && m.audErr == nil
	if b.d.firstErr != nil {
		fmt.Fprintf(log, "first error: %v\n", b.d.firstErr)
	}
	if m.audErr != nil {
		fmt.Fprintln(log, m.audErr)
	}
	return nil
}

// endToEnd measures one window and reports the end-to-end metrics.
func (b *bench) endToEnd(log io.Writer) (*result, error) {
	// The local p50 samples between the parts, so it meets the same host.
	var local []time.Duration
	between := func() error {
		d, err := b.localP50()
		local = append(local, d)
		return err
	}
	m, err := measure(b.d, func() (window, error) { return b.load(b.o.window, b.d.newCall(), between) })
	if err != nil {
		return nil, err
	}
	res := &result{}
	if err := b.verdict(res, m, log); err != nil {
		return nil, err
	}
	acc, err := b.or.accuracy()
	if err != nil {
		return nil, err
	}
	setup := make([]float64, len(b.setups))
	for i, p := range b.setups {
		setup[i] = p.total().Seconds()
	}
	q := float64(m.ok)
	res.add("setup_s", median(setup), "s")
	p50, p90, p99, qps := m.steady()
	res.add("latency_p50_ms", ms(p50), "ms")
	res.add("latency_p90_ms", ms(p90), "ms")
	res.add("throughput_qps", qps, "queries/s")
	res.add("accuracy_pct", acc, "%")
	res.add("allocs_per_query", float64(m.mallocs)/q, "count")
	res.add("alloc_bytes_per_query", float64(m.allocBytes)/q, "B")
	res.add("wire_bytes_per_query", (m.delta.readBytes+m.delta.writtenBytes)/q, "B")
	res.add("heap_inuse_mb", b.heapMB, "MB")
	// The p99 and local p50 are printed but are not metrics: in some runs
	// the host stalled over 1 % of the calls by milliseconds, and the local
	// p50 of single-threaded Pipeline.Predict flipped between the host's
	// fast and slow stretches.
	localP50 := quantile(local, 0.5)
	fmt.Fprintf(log, "%s seed %d: %d calls, %d queries ok, %d failed (failed_frac %.4f) in %.2fs; latency_p99_ms %.4f; gen_lag_p99_ms %.4f; local_p50_ms %.4f; latency_p50/local_p50 %.2f\n",
		b.o.workload.name, b.o.seed, m.calls, m.ok, m.failed, float64(m.failed)/float64(m.ok+m.failed),
		m.elapsed.Seconds(), ms(p99), ms(m.lagP99()), ms(localP50), float64(p50)/float64(localP50))
	return res, nil
}
