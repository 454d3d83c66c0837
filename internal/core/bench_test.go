package core

import (
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/quant"
)

// benchPipeline trains a small-but-realistic pipeline: ISOLET-shaped inputs
// (617 features) into D_hv = 4,000 with the paper-default biased-ternary
// encoding quantization — the Predict hot path a serving deployment runs
// per query.
func benchPipeline(b *testing.B) (*Pipeline, []float64) {
	b.Helper()
	cfg := Config{
		HD:        hdc.Config{Dim: 4000, Features: 617, Levels: 100, Seed: 7},
		Encoding:  EncodingLevel,
		Quantizer: quant.BiasedTernary{},
	}
	src := hrand.New(42)
	const samples, classes = 64, 8
	X := make([][]float64, samples)
	y := make([]int, samples)
	for i := range X {
		x := make([]float64, cfg.HD.Features)
		for k := range x {
			x[k] = src.Float64()
		}
		X[i] = x
		y[i] = i % classes
	}
	p, err := TrainData(cfg, X, y, classes)
	if err != nil {
		b.Fatal(err)
	}
	p.Model().Precompute()
	return p, X[0]
}

func BenchmarkPipelinePredict(b *testing.B) {
	p, x := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Predict(x)
	}
}

func BenchmarkPipelinePredictParallel(b *testing.B) {
	p, x := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = p.Predict(x)
		}
	})
}

// BenchmarkEncodeEdge times Edge.PreparePackedInto, the edge's whole share
// of a remote Predict, on the level edges the serving benchmarks run: 617
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
		e, err := NewEdge(EdgeConfig{
			HD:       hdc.Config{Dim: bc.dim, Features: 617, Levels: 100, Seed: 7},
			Encoding: EncodingLevel,
			Quantize: true,
			MaskDims: bc.mask,
			MaskSeed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		src := hrand.New(42)
		x := make([]float64, 617)
		for k := range x {
			x[k] = src.Float64()
		}
		dst := intscore.NewPlanes(bc.dim)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.PreparePackedInto(x, dst)
			}
		})
	}
}
