package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPrinted asserts res prints exactly the named metrics, each on a
// "name value unit" line with its unit.
func checkPrinted(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	for _, m := range want {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
		if !line.Match(out.Bytes()) {
			t.Errorf("no %q line with unit %q in:\n%s", m.Name, m.Unit, out.String())
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last result
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Attempted < 1 {
		t.Errorf("last line is not the result object (%v): %s", err, lines[len(lines)-1])
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestEveryWorkloadPrintsEndToEndMetrics(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(options{workload: w, seed: 7, window: 300 * time.Millisecond, setups: 1}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("fault-free run: correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkPrinted(t, res, s.EndToEnd)
		})
	}
}

func TestOracleRejectsCorruptedReference(t *testing.T) {
	w, _ := workloadByName("predict-d4k")
	b, err := newBench(options{workload: w, seed: 7, window: 200 * time.Millisecond, setups: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	// The first measured call asks for order[0]; its reference now
	// disagrees with the served model.
	i := b.d.order[0]
	b.or.ref[i] = (b.or.ref[i] + 1) % len(b.ds.TestY)
	res, err := b.endToEnd(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted reference went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if b.d.firstErr != nil {
		t.Errorf("the wrong answer should be the only failure, got error %v", b.d.firstErr)
	}
}

// layerSpans names, per per-layer metric, the span its number comes from
// or, for counters, the span of the calls it counts.
var layerSpans = map[string]string{
	"edge.prepare_us":                  "edge.prepare",
	"edge.prepare_allocs":              "edge.prepare",
	"edge.prepare_bytes":               "edge.prepare",
	"edge.prepare_batch_us_per_query":  "edge.prepare_batch",
	"offload.pack_us":                  "offload.pack",
	"offload.pack_allocs":              "offload.pack",
	"offload.roundtrip_us":             "probe.single",
	"offload.wire_self_us":             "offload.wire",
	"offload.client_queue_us":          "offload.client_queue",
	"offload.network_us":               "offload.wire",
	"offload.server_queue_us":          "offload.server_queue",
	"offload.server_score_us":          "offload.server_score",
	"offload.server_total_us":          "offload.server",
	"offload.req_bytes_per_query":      "offload.wire",
	"offload.reply_bytes_per_query":    "offload.wire",
	"offload.frames_per_query":         "offload.wire",
	"intscore.scores_dense_us":         "intscore.scores_dense",
	"intscore.scores_gather_us":        "intscore.scores_gather",
	"intscore.partials_us":             "intscore.partials",
	"cluster.pool_self_us":             "probe.pool",
	"cluster.cluster_self_us":          "probe.cluster",
	"cluster.retries_per_query":        "probe.pool",
	"cluster.failovers_per_query":      "probe.cluster",
	"cluster.scatter_chunks_per_batch": "probe.cluster_batch",
	"shard.gather_self_us":             "probe.sharded",
	"shard.partial_retries_per_query":  "shard.coordinator",
	"core.predict_us":                  "core.predict",
	"hdc.train_s":                      "hdc.train",
	"hdc.save_load_s":                  "hdc.save_load",
	"registry.publish_s":               "registry.publish",
	"offload.connect_s":                "offload.connect",
	"loadgen.lag_p99_ms":               "request",
	"trace.latency_p50_ms":             "request",
	"trace.overhead_pct":               "request",
	"trace.blocking_path_pct":          "request",
}

func TestTracedModeEmitsEverySpan(t *testing.T) {
	s := readSpec(t)
	for _, name := range []string{"predict-d4k", "sharded-d10k"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := run(options{workload: w, seed: 7, window: 600 * time.Millisecond, setups: 1, trace: true, spans: path}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run failed %d of %d", res.Failed, res.Attempted)
			}
			checkPrinted(t, res, s.PerLayer)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			names := map[string]int{}
			var spans []span
			sc := bufio.NewScanner(f)
			n := 0
			for ; sc.Scan(); n++ {
				var sp span
				if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
					t.Fatal(err)
				}
				if sp.ID != int32(n) || sp.Parent >= sp.ID || sp.End < sp.Start {
					t.Fatalf("malformed span %+v at line %d", sp, n)
				}
				names[sp.Name]++
				spans = append(spans, sp)
			}
			// Every wire round trip of a workload call nests under the
			// call, or under its scatter–gather when the model is sharded.
			want := "client.predict_prepared"
			if w.groups() > 1 {
				want = "shard.coordinator"
			}
			wires := 0
			for _, sp := range spans {
				if sp.Name != "offload.wire" {
					continue
				}
				p := spans[sp.Parent]
				call := p
				if p.Name == "shard.coordinator" {
					call = spans[p.Parent]
				}
				if call.Name != "client.predict_prepared" {
					continue // a probe's round trip
				}
				wires++
				if p.Name != want {
					t.Errorf("wire span %d nests under %s, want %s", sp.ID, p.Name, want)
				}
				if sp.Start < p.Start || sp.End > p.End {
					t.Errorf("wire span %+v lies outside its parent %+v", sp, p)
				}
			}
			if wires != names["request"]*w.groups() {
				t.Errorf("%d wire spans under workload calls, want %d requests × %d shard groups", wires, names["request"], w.groups())
			}
			for _, m := range s.PerLayer {
				sp, ok := layerSpans[m.Name]
				if !ok {
					t.Errorf("per-layer metric %s has no span", m.Name)
				} else if names[sp] == 0 {
					t.Errorf("per-layer metric %s: no %q span in the log", m.Name, sp)
				}
			}
		})
	}
}
