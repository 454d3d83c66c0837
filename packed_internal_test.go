package privehd

// Regression tests for the packed query path: a quantizing edge's query
// stays int8 from the encoder to the server's scoring kernel.

import (
	"context"
	"math"
	"privehd/internal/intscore"
	"runtime"
	"testing"
)

// trainWide trains a two-class level model at dimension dim over 16
// features.
func trainWide(t *testing.T, dim int) *Pipeline {
	t.Helper()
	var X [][]float64
	var y []int
	for i := 0; i < 32; i++ {
		c := i % 2
		x := make([]float64, 16)
		for k := range x {
			x[k] = 0.25 + 0.5*float64(c) + 0.02*float64((i+k)%5-2)
		}
		X = append(X, x)
		y = append(y, c)
	}
	p, err := New(WithDim(dim), WithLevels(16), WithSeed(5), WithRetrain(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPredictAllocatesNoFloatQuery bounds what one remote Predict
// allocates, client and in-process server together, below a single
// float64 hypervector (8·D bytes): a query widened to float64 anywhere
// between the edge and the kernel fails it.
func TestPredictAllocatesNoFloatQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const dim, calls = 4000, 400
	p := trainWide(t, dim)
	reg := NewRegistry()
	if err := reg.Register("m", p); err != nil {
		t.Fatal(err)
	}
	c, err := Connect(context.Background(),
		Target{Addrs: []string{serveTest(t, reg)}, Model: "m", Topology: TopologyPool},
		WithConnectPool(WithPoolSize(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	x := make([]float64, 16)
	for k := range x {
		x[k] = 0.7
	}
	for i := 0; i < 50; i++ { // warm pools and gob type caches
		if _, _, err := c.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, _, err := c.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / calls
	if perQuery >= 8*dim {
		t.Fatalf("Predict allocates %d B per query at D=%d, want < %d (one float64 hypervector)", perQuery, dim, 8*dim)
	}
	t.Logf("Predict allocates %d B per query at D=%d", perQuery, dim)
}

// TestPreparePackedIntoAllocationFree pins the fused edge step — encode,
// bipolar-quantize, mask — at zero allocations, plain and masked.
func TestPreparePackedIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const dim = 4000
	p := trainWide(t, dim)
	x := make([]float64, 16)
	for k := range x {
		x[k] = 0.3
	}
	dst := intscore.NewPlanes(dim)
	for _, mask := range []int{0, dim / 4} {
		var opts []Option
		if mask > 0 {
			opts = append(opts, WithQueryMask(mask))
		}
		edge, err := p.Edge(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { edge.preparePackedInto(x, dst) }); allocs != 0 {
			t.Fatalf("mask=%d: preparePackedInto allocates %v times per call, want 0", mask, allocs)
		}
	}
}

// TestEdgeNonFiniteInputs feeds the edge inputs no normalizer should let
// through: they clamp to the end levels instead of panicking, and the
// ground truth maps NaN to the lowest level.
func TestEdgeNonFiniteInputs(t *testing.T) {
	p := trainWide(t, 256)
	edge, err := p.Edge(WithQueryMask(64))
	if err != nil {
		t.Fatal(err)
	}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	x := make([]float64, 16)
	for k := range x {
		x[k] = odd[k%len(odd)]
	}
	q, err := edge.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range q {
		if v != -1 && v != 0 && v != 1 {
			t.Fatalf("dim %d: prepared symbol %v, want −1, 0 or +1", j, v)
		}
	}
	want := []float64{0, 1, 0, 1}
	for k, v := range edge.QuantizeTruth(x) {
		if v != want[k%len(want)] {
			t.Fatalf("feature %d (%v): truth %v, want %v", k, x[k], v, want[k%len(want)])
		}
	}
}
