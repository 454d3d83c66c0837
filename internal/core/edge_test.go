package core

import (
	"slices"
	"sync"
	"testing"

	"privehd/internal/attack"
	"privehd/internal/hdc"
	"privehd/internal/intscore"
	"privehd/internal/vecmath"
)

func edgeHD() hdc.Config {
	return hdc.Config{Dim: 3000, Features: 50, Levels: 8, Seed: 11}
}

func TestNewEdgeValidation(t *testing.T) {
	if _, err := NewEdge(EdgeConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	if _, err := NewEdge(EdgeConfig{HD: edgeHD(), MaskDims: 3000}); err == nil {
		t.Error("masking every dimension should fail")
	}
	if _, err := NewEdge(EdgeConfig{HD: edgeHD(), MaskDims: -1}); err == nil {
		t.Error("negative mask should fail")
	}
}

func TestEdgePrepareQuantizes(t *testing.T) {
	e, err := NewEdge(EdgeConfig{HD: edgeHD(), Encoding: EncodingScalar, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64(i) / 50
	}
	h := e.Prepare(x)
	for _, v := range h {
		if v != 1 && v != -1 {
			t.Fatalf("unquantized value %v escaped the edge", v)
		}
	}
}

func TestEdgePrepareMasks(t *testing.T) {
	e, err := NewEdge(EdgeConfig{HD: edgeHD(), Quantize: true, MaskDims: 1000, MaskSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	for i := range x {
		x[i] = 0.5
	}
	h := e.Prepare(x)
	zeros := 0
	for _, v := range h {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 1000 {
		t.Errorf("masked zeros = %d, want 1000", zeros)
	}
	if e.Mask() == nil || e.Mask().Kept() != 2000 {
		t.Error("mask accessor wrong")
	}
}

func TestEdgeObfuscationDegradesReconstruction(t *testing.T) {
	// End-to-end §III-C claim: an eavesdropper reconstructing from the
	// obfuscated query does much worse than from the raw encoding.
	cfg := edgeHD()
	plain, err := NewEdge(EdgeConfig{HD: cfg, Encoding: EncodingScalar})
	if err != nil {
		t.Fatal(err)
	}
	obfuscated, err := NewEdge(EdgeConfig{HD: cfg, Encoding: EncodingScalar, Quantize: true, MaskDims: 1500, MaskSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64((i*7)%50) / 50
	}
	truth := make([]float64, len(x))
	for i, v := range x {
		truth[i] = hdc.LevelValue(hdc.LevelIndex(v, cfg.Levels), cfg.Levels)
	}
	bases := plain.Encoder().(hdc.BaseProvider)
	cleanRecon, err := attack.DecodeScaled(bases, plain.Prepare(x))
	if err != nil {
		t.Fatal(err)
	}
	obfRecon, err := attack.DecodeScaled(obfuscated.Encoder().(hdc.BaseProvider), obfuscated.Prepare(x))
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
	e, err := NewEdge(EdgeConfig{HD: edgeHD(), Quantize: true, MaskDims: 500, MaskSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, 5)
	for i := range X {
		X[i] = make([]float64, 50)
		for k := range X[i] {
			X[i][k] = float64((i+k)%10) / 10
		}
	}
	batch := e.PrepareBatch(X, 2)
	packed := e.PreparePackedBatch(X, 2)
	for i, x := range X {
		single := e.Prepare(x)
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("batch/single mismatch at sample %d dim %d", i, j)
			}
			if float64(packed[i].Symbol(j)) != single[j] {
				t.Fatalf("packed batch/single mismatch at sample %d dim %d", i, j)
			}
		}
	}

	// An edge that does not quantize has no packed form.
	raw, err := NewEdge(EdgeConfig{HD: edgeHD()})
	if err != nil {
		t.Fatal(err)
	}
	if raw.PreparePackedInto(X[0], intscore.NewPlanes(edgeHD().Dim)) || raw.PreparePackedBatch(X, 2) != nil {
		t.Fatal("non-quantizing edge produced a packed query")
	}
}

// TestEdgeConcurrentBatchMasked shares one masked level edge — and so its
// compacted engine — between goroutines mixing PreparePackedBatch (itself
// parallel) and PreparePackedInto; every query must equal the serial one.
func TestEdgeConcurrentBatchMasked(t *testing.T) {
	cfg := edgeHD()
	e, err := NewEdge(EdgeConfig{HD: cfg, Quantize: true, MaskDims: cfg.Dim / 4, MaskSeed: 12})
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, 16)
	for i := range X {
		X[i] = make([]float64, cfg.Features)
		for k := range X[i] {
			X[i][k] = float64((i*k+3*i+k)%17) / 17
		}
	}
	want := make([]intscore.Planes, len(X))
	for i, x := range X {
		want[i] = intscore.NewPlanes(cfg.Dim)
		e.PreparePackedInto(x, want[i])
	}
	same := func(a, b intscore.Planes) bool { return slices.Equal(a.Bits, b.Bits) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := intscore.NewPlanes(cfg.Dim)
			for round := 0; round < 4; round++ {
				for i, got := range e.PreparePackedBatch(X, 3) {
					if !same(got, want[i]) {
						t.Errorf("goroutine %d: batch query %d differs from serial", g, i)
						return
					}
				}
				for i := range X {
					i := (i + g) % len(X)
					e.PreparePackedInto(X[i], q)
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
