package privehd

// Tests of the §III-C edge: 1-bit quantization and masking of every query
// before it leaves the device, checked against the reference chain.

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/quant"
	"privehd/internal/vecmath"
)

// edgeOpts is the edge tests' geometry: D=3000 over 50 features and 8
// levels.
func edgeOpts(opts ...Option) []Option {
	return append([]Option{WithDim(3000), WithFeatures(50), WithLevels(8), WithSeed(11)}, opts...)
}

// newTestEdge is NewEdge that fails the test on error.
func newTestEdge(t testing.TB, opts ...Option) *Edge {
	t.Helper()
	e, err := NewEdge(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// prepareOne is Prepare that fails the test on error.
func prepareOne(t testing.TB, e *Edge, x []float64) []float64 {
	t.Helper()
	h, err := e.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewEdgeValidation(t *testing.T) {
	if _, err := NewEdge(); err == nil {
		t.Error("default options (no features) should fail")
	}
	if _, err := NewEdge(edgeOpts(WithQueryMask(3000))...); err == nil {
		t.Error("masking every dimension should fail")
	}
	if _, err := NewEdge(edgeOpts(WithQueryMask(-1))...); err == nil {
		t.Error("negative mask should fail")
	}
}

func TestEdgePrepareQuantizes(t *testing.T) {
	e := newTestEdge(t, edgeOpts(WithEncoding(Scalar))...)
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64(i) / 50
	}
	for _, v := range prepareOne(t, e, x) {
		if v != 1 && v != -1 {
			t.Fatalf("unquantized value %v escaped the edge", v)
		}
	}
}

func TestEdgePrepareMasks(t *testing.T) {
	e := newTestEdge(t, edgeOpts(WithQueryMask(1000))...)
	x := make([]float64, 50)
	for i := range x {
		x[i] = 0.5
	}
	zeros := 0
	for _, v := range prepareOne(t, e, x) {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 1000 {
		t.Errorf("masked zeros = %d, want 1000", zeros)
	}
	if e.mask == nil || e.mask.Kept() != 2000 {
		t.Error("edge mask wrong")
	}
}

func TestEdgeObfuscationDegradesReconstruction(t *testing.T) {
	// End-to-end §III-C claim: an eavesdropper reconstructing from the
	// obfuscated query does much worse than from the raw encoding.
	plain := newTestEdge(t, edgeOpts(WithEncoding(Scalar), WithRawQueries())...)
	obfuscated := newTestEdge(t, edgeOpts(WithEncoding(Scalar), WithQueryMask(1500))...)
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64((i*7)%50) / 50
	}
	truth := plain.QuantizeTruth(x)
	cleanRecon, err := plain.Reconstruct(prepareOne(t, plain, x))
	if err != nil {
		t.Fatal(err)
	}
	obfRecon, err := obfuscated.Reconstruct(prepareOne(t, obfuscated, x))
	if err != nil {
		t.Fatal(err)
	}
	mseClean := vecmath.MSE(truth, cleanRecon)
	mseObf := vecmath.MSE(truth, obfRecon)
	if mseObf <= mseClean {
		t.Errorf("obfuscated MSE %v should exceed clean MSE %v", mseObf, mseClean)
	}
}

func TestEdgePrepareBatchMatchesPrepare(t *testing.T) {
	e := newTestEdge(t, edgeOpts(WithQueryMask(500), WithWorkers(2))...)
	X := make([][]float64, 5)
	for i := range X {
		X[i] = make([]float64, 50)
		for k := range X[i] {
			X[i][k] = float64((i+k)%10) / 10
		}
	}
	batch, err := e.PrepareBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := e.queries(X)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		single := prepareOne(t, e, x)
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("batch/single mismatch at sample %d dim %d", i, j)
			}
			if float64(packed[i].Packed.Symbol(j)) != single[j] {
				t.Fatalf("packed batch/single mismatch at sample %d dim %d", i, j)
			}
		}
	}

	// An edge that does not quantize has no packed form.
	raw := newTestEdge(t, edgeOpts(WithRawQueries(), WithWorkers(2))...)
	qs, err := raw.queries(X)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if q.Packed.Bits != nil || len(q.Vector) != 3000 {
			t.Fatalf("non-quantizing edge's query %d is not a full-precision vector", i)
		}
	}
}

// TestEdgeConcurrentBatchMasked shares one masked level edge — and so its
// compacted engine — between goroutines mixing batch queries (themselves
// parallel) and preparePackedInto; every query must equal the serial one.
func TestEdgeConcurrentBatchMasked(t *testing.T) {
	const dim, features = 3000, 50
	e := newTestEdge(t, edgeOpts(WithQueryMask(dim/4), WithWorkers(3))...)
	X := make([][]float64, 16)
	for i := range X {
		X[i] = make([]float64, features)
		for k := range X[i] {
			X[i][k] = float64((i*k+3*i+k)%17) / 17
		}
	}
	want := make([]intscore.Planes, len(X))
	for i, x := range X {
		want[i] = intscore.NewPlanes(dim)
		e.preparePackedInto(x, want[i])
	}
	same := func(a, b intscore.Planes) bool { return slices.Equal(a.Bits, b.Bits) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := intscore.NewPlanes(dim)
			for round := 0; round < 4; round++ {
				qs, err := e.queries(X)
				if err != nil {
					t.Error(err)
					return
				}
				for i, got := range qs {
					if !same(got.Packed, want[i]) {
						t.Errorf("goroutine %d: batch query %d differs from serial", g, i)
						return
					}
				}
				for i := range X {
					i := (i + g) % len(X)
					e.preparePackedInto(X[i], q)
					if !same(q, want[i]) {
						t.Errorf("goroutine %d: query %d differs from serial", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEdgePrepareFusedMatchesReference checks the edge's fused 1-bit path
// against encode-then-quantize-then-mask done by hand, on both encodings,
// unmasked, with a quarter masked and with all but one dimension masked
// (a level edge then encodes from its compacted memory).
func TestEdgePrepareFusedMatchesReference(t *testing.T) {
	const dim = 310
	for _, enc := range []Encoding{Level, Scalar} {
		for _, maskDims := range []int{0, dim / 4, dim - 1} {
			e := newTestEdge(t, WithDim(dim), WithFeatures(21), WithLevels(10), WithSeed(8),
				WithEncoding(enc), WithQueryMask(maskDims), WithWorkers(3))
			X, _ := fastPathData(21)
			packed := intscore.NewPlanes(dim)
			for i, x := range X[:8] {
				want := quant.Bipolar{}.Quantize(e.encoder.Encode(x))
				if e.mask != nil {
					e.mask.Apply(want)
				}
				wantPk, _ := intscore.PackInto(want, nil)
				got := prepareOne(t, e, x)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("enc=%v mask=%d sample %d dim %d: fused %v, reference %v",
							enc, maskDims, i, j, got[j], want[j])
					}
				}
				for w := range packed.Bits {
					packed.Bits[w] = ^uint64(0) // stale bits must be overwritten
				}
				e.preparePackedInto(x, packed)
				if !slices.Equal(packed.Bits, intscore.Split(wantPk).Bits) {
					t.Fatalf("enc=%v mask=%d sample %d: planes differ from the reference's", enc, maskDims, i)
				}
			}
			// PrepareBatch must agree with Prepare row by row.
			batch, err := e.PrepareBatch(X)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range X {
				want := prepareOne(t, e, x)
				for j := range want {
					if batch[i][j] != want[j] {
						t.Fatalf("batch sample %d dim %d mismatch", i, j)
					}
				}
			}
		}
	}
}

// TestEdgeRefusesGeometryBeyondEngine pins that a geometry the bit-sliced
// engine cannot encode (more levels than it supports) is refused at setup
// with hdc.ErrGeometry rather than served by a second encode path.
func TestEdgeRefusesGeometryBeyondEngine(t *testing.T) {
	_, err := NewEdge(WithDim(130), WithFeatures(5), WithLevels(1<<16+1), WithSeed(4),
		WithEncoding(Scalar), WithQueryMask(30))
	if !errors.Is(err, hdc.ErrGeometry) {
		t.Fatalf("NewEdge with 2^16+1 levels: err = %v, want hdc.ErrGeometry", err)
	}
}

// BenchmarkEncodeEdge times preparePackedInto, the edge's whole share of
// a remote Predict, on the level edges the serving benchmarks run: 617
// features over 100 levels into D = 4 000 unmasked (the single-model pool
// workload) and into D = 10 000 with 5 000 dimensions masked (the sharded
// workload).
func BenchmarkEncodeEdge(b *testing.B) {
	for _, bc := range []struct {
		name      string
		dim, mask int
	}{
		{"d4000", 4000, 0},
		{"d10000-mask5000", 10000, 5000},
	} {
		e := newTestEdge(b, WithDim(bc.dim), WithFeatures(617), WithLevels(100), WithSeed(7),
			WithQueryMask(bc.mask))
		src := hrand.New(42)
		x := make([]float64, 617)
		for k := range x {
			x[k] = src.Float64()
		}
		dst := intscore.NewPlanes(bc.dim)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.preparePackedInto(x, dst)
			}
		})
	}
}
