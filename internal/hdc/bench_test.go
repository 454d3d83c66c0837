package hdc

import (
	"testing"

	"privehd/internal/encslice"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
)

// Kernel benchmarks at the paper's geometry: ISOLET-shaped inputs
// (617 features) into D_hv = 10,000 hypervectors.

func benchFeatures(n int) []float64 {
	src := hrand.New(100)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Float64()
	}
	return x
}

func BenchmarkLevelEncode617x10k(b *testing.B) {
	enc, err := NewLevelEncoder(Config{Dim: 10000, Features: 617, Levels: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := benchFeatures(617)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Encode(x)
	}
}

func BenchmarkScalarEncode617x10k(b *testing.B) {
	enc, err := NewScalarEncoder(Config{Dim: 10000, Features: 617, Levels: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := benchFeatures(617)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Encode(x)
	}
}

// BenchmarkEncode measures the bit-sliced engine against the reference
// float loops at the serving geometry (617 features → D_hv = 4,000, the
// same shape BenchmarkPipelinePredict runs end to end), plus the fused
// encode→quantize path and the multi-row batch kernel. The *-ref cases are
// the pre-engine implementations, kept as the committed before/after
// record; all engine paths must stay allocation-free.
func BenchmarkEncode(b *testing.B) {
	cfg := Config{Dim: 4000, Features: 617, Levels: 100, Seed: 1}
	le, err := NewLevelEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	se, err := NewScalarEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := benchFeatures(cfg.Features)
	h := make([]float64, cfg.Dim)
	pk := intscore.NewPlanes(cfg.Dim)

	b.Run("level", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			le.EncodeInto(x, h)
		}
	})
	b.Run("level-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			le.encodeRefInto(x, h)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			se.EncodeInto(x, h)
		}
	})
	b.Run("scalar-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			se.encodeRefInto(x, h)
		}
	})
	b.Run("level-packed", func(b *testing.B) {
		// The fused Predict form: packed biased-ternary query straight from
		// integer counts.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			le.EncodePackedInto(x, encslice.SchemeBiasedTernary, pk)
		}
	})
	b.Run("level-bipolar", func(b *testing.B) {
		// The edge's 1-bit query: the sign comparator on the counters.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			le.EncodePackedInto(x, encslice.SchemeBipolar, pk)
		}
	})
	b.Run("scalar-packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			se.EncodePackedInto(x, encslice.SchemeBiasedTernary, pk)
		}
	})
	b.Run("level-batch8", func(b *testing.B) {
		// One op encodes 8 rows through the multi-row kernel (each item-
		// memory column loaded once per chunk).
		X := make([][]float64, 8)
		for i := range X {
			X[i] = benchFeatures(cfg.Features)
		}
		hb := make([]float64, len(X)*cfg.Dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			le.encodeRows(X, encslice.SchemeNone, hb)
		}
	})
}

func BenchmarkPredict26x10k(b *testing.B) {
	// Eq. 4 inference against an ISOLET-shaped model (26 classes).
	src := hrand.New(101)
	m := NewModel(26, 10000)
	for l := 0; l < 26; l++ {
		m.Add(l, src.NormalVec(10000, 0, 25))
	}
	q := src.NormalVec(10000, 0, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(q)
	}
}

func BenchmarkRetrainEpoch(b *testing.B) {
	src := hrand.New(102)
	const classes, dim, samples = 8, 2000, 200
	encoded := make([][]float64, samples)
	labels := make([]int, samples)
	for i := range encoded {
		encoded[i] = src.NormalVec(dim, 0, 10)
		labels[i] = i % classes
	}
	m, err := Train(encoded, labels, classes, dim)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RetrainEpoch(m, encoded, labels)
	}
}
