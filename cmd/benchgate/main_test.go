package main

import (
	"bufio"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: privehd/internal/intscore
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScoresPacked/float64-expand-8         	     500	     76842 ns/op	   32768 B/op	       1 allocs/op
BenchmarkScoresPacked/float64-expand-8         	     500	     73960 ns/op	   32768 B/op	       1 allocs/op
BenchmarkScoresPacked/intscore-8               	     500	     32834 ns/op	       0 B/op	       0 allocs/op
BenchmarkScoresPacked/intscore-8               	     500	     32705 ns/op	       0 B/op	       0 allocs/op
PASS
pkg: privehd
BenchmarkServingThroughput/single-conn-8       	     300	    129093 ns/op	         7750 queries/s
PASS
`

func parse(t *testing.T, text string) map[string]Entry {
	t.Helper()
	samples, err := parseBench(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return reduce(samples)
}

func TestParseReduce(t *testing.T) {
	cur := parse(t, benchOutput)
	e, ok := cur["privehd/internal/intscore BenchmarkScoresPacked/intscore"]
	if !ok {
		t.Fatalf("missing intscore benchmark; got keys %v", keys(cur))
	}
	if e.NsPerOp != (32834+32705)/2.0 {
		t.Fatalf("median ns/op = %v", e.NsPerOp)
	}
	if e.AllocsPerOp == nil || *e.AllocsPerOp != 0 {
		t.Fatalf("allocs/op = %v, want 0", e.AllocsPerOp)
	}
	// The -cpu suffix must be stripped, and custom metrics must not be
	// mistaken for ns/op.
	s, ok := cur["privehd BenchmarkServingThroughput/single-conn"]
	if !ok {
		t.Fatalf("missing serving benchmark; got keys %v", keys(cur))
	}
	if s.NsPerOp != 129093 {
		t.Fatalf("serving ns/op = %v", s.NsPerOp)
	}
}

// TestParseSingleCPUSuffix: without a GOMAXPROCS suffix (GOMAXPROCS=1),
// a benchmark whose own name ends in "-<digits>" must not be mangled —
// only a trailing number shared by every line is the procs suffix.
func TestParseSingleCPUSuffix(t *testing.T) {
	const singleCPU = `pkg: privehd/internal/intscore
BenchmarkScoresPacked/block-128     	     500	     32834 ns/op
BenchmarkScoresPacked/plain         	     500	     30000 ns/op
PASS
`
	cur := parse(t, singleCPU)
	if _, ok := cur["privehd/internal/intscore BenchmarkScoresPacked/block-128"]; !ok {
		t.Fatalf("block-128 was mangled; got keys %v", keys(cur))
	}
	// And a uniform trailing number IS stripped even when a name also ends
	// in digits before it.
	const multiCPU = `pkg: privehd/internal/intscore
BenchmarkScoresPacked/block-128-8   	     500	     32834 ns/op
BenchmarkScoresPacked/plain-8       	     500	     30000 ns/op
PASS
`
	cur = parse(t, multiCPU)
	if _, ok := cur["privehd/internal/intscore BenchmarkScoresPacked/block-128"]; !ok {
		t.Fatalf("procs suffix not stripped from block-128-8; got keys %v", keys(cur))
	}
}

func keys(m map[string]Entry) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func entries(pairs map[string]float64, allocs map[string]float64) map[string]Entry {
	out := map[string]Entry{}
	for k, ns := range pairs {
		e := Entry{NsPerOp: ns}
		if a, ok := allocs[k]; ok {
			a := a
			e.AllocsPerOp = &a
		}
		out[k] = e
	}
	return out
}

func hasFatal(fs []finding) bool {
	for _, f := range fs {
		if f.fatal {
			return true
		}
	}
	return false
}

// TestCompareMachineNormalization: a uniformly slower machine does not fail
// the gate, because the median ratio absorbs the machine factor.
func TestCompareMachineNormalization(t *testing.T) {
	base := entries(map[string]float64{"a": 100, "b": 200, "c": 400}, nil)
	cur := entries(map[string]float64{"a": 210, "b": 420, "c": 840}, nil)
	if hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("uniform 2.1x slowdown (slower machine) must not fail the gate")
	}
}

// TestCompareSharedKernelRegression: a regression that hits most — but not
// all — of the suite must still fail. Most gated benchmarks share the
// scoring kernels, so the machine factor is a low quantile: only the
// unaffected minority anchors it.
func TestCompareSharedKernelRegression(t *testing.T) {
	base := entries(map[string]float64{"k1": 100, "k2": 100, "k3": 100, "k4": 100, "k5": 100, "k6": 100, "anchor1": 100, "anchor2": 100}, nil)
	cur := entries(map[string]float64{"k1": 200, "k2": 200, "k3": 200, "k4": 200, "k5": 200, "k6": 200, "anchor1": 100, "anchor2": 100}, nil)
	if !hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("2x regression of 6/8 kernel-sharing benchmarks must fail the gate")
	}
}

// TestCompareSingleRegression: one hot path regressing >20% fails even
// though the rest of the suite is steady — the deliberate local check the
// acceptance criteria call for.
func TestCompareSingleRegression(t *testing.T) {
	base := entries(map[string]float64{"a": 100, "b": 200, "c": 400, "d": 100}, nil)
	cur := entries(map[string]float64{"a": 100, "b": 200, "c": 400, "d": 135}, nil)
	fs := compare(base, cur, 1.2)
	if !hasFatal(fs) {
		t.Fatal("35% regression of one benchmark must fail the gate")
	}
	// And 15% stays under the threshold.
	cur = entries(map[string]float64{"a": 100, "b": 200, "c": 400, "d": 115}, nil)
	if hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("15% drift must not fail the gate")
	}
}

// TestCompareZeroAllocRegression: any alloc on a zero-alloc path fails,
// regardless of timing, and so does any increase over a non-zero baseline.
func TestCompareZeroAllocRegression(t *testing.T) {
	base := entries(map[string]float64{"a": 100, "b": 100}, map[string]float64{"a": 0})
	cur := entries(map[string]float64{"a": 100, "b": 100}, map[string]float64{"a": 1})
	if !hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("alloc increase on zero-alloc path must fail the gate")
	}
	// A non-zero baseline growing allocs fails too; holding or falling
	// passes.
	base = entries(map[string]float64{"a": 100}, map[string]float64{"a": 2})
	cur = entries(map[string]float64{"a": 100}, map[string]float64{"a": 3})
	if !hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("alloc increase on a non-zero path must fail the gate")
	}
	for _, a := range []float64{1, 2} {
		cur = entries(map[string]float64{"a": 100}, map[string]float64{"a": a})
		if hasFatal(compare(base, cur, 1.2)) {
			t.Fatalf("%v allocs/op against a baseline of 2 must pass", a)
		}
	}
	// A benchmark that stops reporting allocs while the baseline records
	// them fails — the contract must not rot silently.
	base = entries(map[string]float64{"a": 100}, map[string]float64{"a": 0})
	cur = entries(map[string]float64{"a": 100}, nil)
	if !hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("vanished allocs/op reporting must fail the gate")
	}
}

// TestCompareMissingBenchmark: a benchmark that silently vanishes from the
// run fails the gate (the baseline must be refreshed deliberately).
func TestCompareMissingBenchmark(t *testing.T) {
	base := entries(map[string]float64{"a": 100, "b": 100}, nil)
	cur := entries(map[string]float64{"a": 100}, nil)
	if !hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("missing benchmark must fail the gate")
	}
	// New benchmarks are fine.
	cur = entries(map[string]float64{"a": 100, "b": 100, "c": 50}, nil)
	if hasFatal(compare(base, cur, 1.2)) {
		t.Fatal("new benchmark must not fail the gate")
	}
}
