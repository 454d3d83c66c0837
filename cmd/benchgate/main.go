// Command benchgate is the CI benchmark-regression gate: it parses `go test
// -bench` output, reduces repeated counts to per-benchmark medians, compares
// them against a committed baseline (BENCH_baseline.json) and fails the
// build when a hot path regresses.
//
// Cross-machine comparison is the hard part: the committed baseline was
// recorded on one machine and CI runs on another, so raw ns/op differ by a
// machine-speed factor. The gate therefore normalizes: it estimates the
// machine factor as the 25th-percentile current/baseline ratio across all
// shared benchmarks, then fails any benchmark whose own ratio exceeds
// threshold × that factor. A machine-speed difference shifts every ratio
// uniformly, so a low quantile tracks it; a regression shifts only the
// affected benchmarks upward, so it cannot drag the estimate with it
// unless it touches more than three quarters of the suite — which matters
// here, because most gated benchmarks share the scoring kernels, and a
// median would absorb a kernel-wide regression as "slower machine". (The
// residual blind spot — ≥75% of benchmarks regressing by the same factor —
// is the one a relative gate cannot see; the absolute history lives in the
// uploaded results artifacts.)
//
// allocs/op needs no normalization and is compared strictly: a count is
// deterministic for a given code path, so any increase over a recorded
// baseline fails, whether the baseline is zero or not.
//
// Usage:
//
//	go test -run '^$' -bench 'Scores|Predict|ServingThroughput|Encode|Observe|Trace|^BenchmarkTrain$' \
//	    -benchtime=100ms -count=5 ./... | tee bench.txt
//	go run ./cmd/benchgate -baseline BENCH_baseline.json -in bench.txt \
//	    -out bench_results.json
//
// Refresh the baseline after an intentional performance change with
// -update, which rewrites the baseline from the current input and exits 0.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded figures.
type Entry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the committed BENCH_baseline.json document.
type Baseline struct {
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// sample is one parsed benchmark result line.
type sample struct {
	ns     float64
	allocs float64
	hasNs  bool
	hasAll bool
}

// numericSuffix returns the value of a trailing "-<digits>" group of a
// benchmark name, or "" if there is none.
func numericSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i+1:]
}

// parseBench reads `go test -bench` output, keyed "pkg BenchmarkName/sub".
// The GOMAXPROCS suffix ("-8") is stripped, but only when every benchmark
// line in the run carries the same trailing number: Go appends the suffix
// uniformly (and only when GOMAXPROCS > 1), whereas a name that merely ends
// in "-<digits>" (say BenchmarkFoo/block-128) does not match its neighbours
// — so such names survive intact on single-CPU runs instead of being
// mangled into a key that a multi-core run would never produce. Repeated
// -count runs accumulate per key.
func parseBench(r *bufio.Scanner) (map[string][]sample, error) {
	type row struct {
		key string
		s   sample
	}
	var rows []row
	suffix, uniform := "", true
	pkg := ""
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		var s sample
		// Fields come in value/unit pairs after the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns, s.hasNs = v, true
			case "allocs/op":
				s.allocs, s.hasAll = v, true
			}
		}
		if !s.hasNs {
			continue
		}
		switch sfx := numericSuffix(fields[0]); {
		case sfx == "":
			uniform = false
		case suffix == "":
			suffix = sfx
		case sfx != suffix:
			uniform = false
		}
		rows = append(rows, row{key: pkg + " " + fields[0], s: s})
	}
	out := map[string][]sample{}
	trim := ""
	if uniform && suffix != "" {
		trim = "-" + suffix
	}
	for _, r := range rows {
		key := strings.TrimSuffix(r.key, trim)
		out[key] = append(out[key], r.s)
	}
	return out, r.Err()
}

// median reduces samples to one figure per axis.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lowQuantile returns the value at the floor of the q-th position — biased
// low on purpose: when estimating the machine factor, interpolating upward
// into a regressed majority would hide the regression, while rounding down
// onto an unaffected anchor keeps it visible.
func lowQuantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// reduce collapses parsed samples into per-benchmark median entries.
func reduce(samples map[string][]sample) map[string]Entry {
	out := make(map[string]Entry, len(samples))
	for key, ss := range samples {
		var ns, allocs []float64
		hasAllocs := false
		for _, s := range ss {
			ns = append(ns, s.ns)
			if s.hasAll {
				allocs = append(allocs, s.allocs)
				hasAllocs = true
			}
		}
		e := Entry{NsPerOp: median(ns)}
		if hasAllocs {
			a := median(allocs)
			e.AllocsPerOp = &a
		}
		out[key] = e
	}
	return out
}

// finding is one gate decision worth printing.
type finding struct {
	fatal bool
	msg   string
}

// compare applies the normalized threshold gate; threshold is the allowed
// per-benchmark slowdown over the machine factor (e.g. 1.2 = 20%).
func compare(base, cur map[string]Entry, threshold float64) []finding {
	var out []finding
	shared := make([]string, 0, len(base))
	var ratios []float64
	for name, b := range base {
		c, ok := cur[name]
		if !ok {
			out = append(out, finding{true, fmt.Sprintf("MISSING   %s: in baseline but not in current run — a hot-path benchmark vanished (refresh the baseline with -update if intentional)", name)})
			continue
		}
		if b.NsPerOp > 0 {
			shared = append(shared, name)
			ratios = append(ratios, c.NsPerOp/b.NsPerOp)
		}
	}
	// 25th percentile, not median: most gated benchmarks share the scoring
	// kernels, and a median would absorb a kernel-wide regression into the
	// machine factor. A regression now hides only by touching >75% of the
	// suite.
	factor := lowQuantile(ratios, 0.25)
	if factor == 0 {
		factor = 1
	}
	out = append(out, finding{false, fmt.Sprintf("machine factor: %.3f (25th-percentile current/baseline over %d shared benchmarks)", factor, len(shared))})
	if factor < 1/threshold {
		// A factor this far below 1 means most benchmarks got faster —
		// either a faster runner, or real improvements the committed
		// baseline predates. In the latter case any benchmark the
		// improvement did NOT touch can show up below as "REGRESSED"
		// relative to the improved majority; say so, instead of sending
		// the author hunting a regression that never happened.
		out = append(out, finding{false, fmt.Sprintf("note: factor %.3f < 1/threshold — most benchmarks improved relative to the baseline; any REGRESSED finding in this report may be an unchanged path lagging the improvement (refresh with -update after verifying)", factor)})
	}
	sort.Strings(shared)
	for _, name := range shared {
		b, c := base[name], cur[name]
		ratio := c.NsPerOp / b.NsPerOp
		norm := ratio / factor
		if norm > threshold {
			out = append(out, finding{true, fmt.Sprintf("REGRESSED %s: %.0f ns/op vs baseline %.0f (normalized ×%.2f > ×%.2f)",
				name, c.NsPerOp, b.NsPerOp, norm, threshold)})
		}
		if b.AllocsPerOp != nil {
			switch {
			case c.AllocsPerOp == nil:
				// The alloc contract must not rot silently: a benchmark
				// that stops calling ReportAllocs would otherwise skip
				// this check forever.
				out = append(out, finding{true, fmt.Sprintf("ALLOCS    %s: baseline records allocs/op but the current run reports none — ReportAllocs removed? (refresh with -update if intentional)", name)})
			case *c.AllocsPerOp > *b.AllocsPerOp:
				out = append(out, finding{true, fmt.Sprintf("ALLOCS    %s: %.0f allocs/op vs baseline %.0f (refresh with -update if intentional)", name, *c.AllocsPerOp, *b.AllocsPerOp)})
			}
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			out = append(out, finding{false, fmt.Sprintf("new:      %s (not in baseline; will be gated once the baseline is refreshed)", name)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].fatal && !out[j].fatal })
	return out
}

func writeJSON(path string, doc Baseline) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run() int {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline to gate against")
	inPath := flag.String("in", "-", "go test -bench output ('-' for stdin)")
	outPath := flag.String("out", "", "write the current run's reduced results JSON here (the CI artifact)")
	threshold := flag.Float64("threshold", 1.2, "allowed normalized ns/op ratio before failing (1.2 = 20% regression)")
	update := flag.Bool("update", false, "rewrite the baseline from the current input instead of gating")
	flag.Parse()

	in := os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	samples, err := parseBench(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate: reading input:", err)
		return 2
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results in input")
		return 2
	}
	cur := reduce(samples)
	curDoc := Baseline{
		Note:       "Medians of `go test -run '^$' -bench 'Scores|Predict|ServingThroughput|Encode|Observe|Trace|^BenchmarkTrain$' -benchtime=100ms -count=5 ./...`; refresh with `go run ./cmd/benchgate -in bench.txt -update`.",
		Benchmarks: cur,
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, curDoc); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: writing results:", err)
			return 2
		}
	}
	if *update {
		if err := writeJSON(*baselinePath, curDoc); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: writing baseline:", err)
			return 2
		}
		fmt.Printf("benchgate: baseline %s updated with %d benchmarks\n", *baselinePath, len(cur))
		return 0
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err, "(generate it with -update)")
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate: parsing baseline:", err)
		return 2
	}

	findings := compare(base.Benchmarks, cur, *threshold)
	failed := false
	for _, f := range findings {
		fmt.Println(f.msg)
		failed = failed || f.fatal
	}
	if failed {
		fmt.Println("benchgate: FAIL — hot-path regression against", *baselinePath)
		return 1
	}
	fmt.Printf("benchgate: OK — %d benchmarks within ×%.2f of baseline\n", len(cur), *threshold)
	return 0
}

func main() { os.Exit(run()) }
