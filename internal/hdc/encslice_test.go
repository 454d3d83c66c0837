package hdc

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"privehd/internal/encslice"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/quant"
)

// engineGeometries stresses the word tiling: dimensions around the 64-bit
// word size, feature counts around the 8-wide CSA group, small and large
// level counts.
var engineGeometries = []Config{
	{Dim: 1, Features: 1, Levels: 2, Seed: 11},
	{Dim: 63, Features: 7, Levels: 2, Seed: 12},
	{Dim: 64, Features: 8, Levels: 3, Seed: 13},
	{Dim: 65, Features: 9, Levels: 16, Seed: 14},
	{Dim: 130, Features: 23, Levels: 100, Seed: 15},
	{Dim: 257, Features: 40, Levels: 101, Seed: 16},
}

func engineInputs(cfg Config, trial int) []float64 {
	src := hrand.New(cfg.Seed + uint64(trial)*97)
	x := make([]float64, cfg.Features)
	for k := range x {
		switch trial % 3 {
		case 0:
			x[k] = src.Float64()
		case 1:
			// Saturating inputs exercise the clamp ends of LevelIndex.
			x[k] = 2*src.Float64() - 0.5
		default:
			x[k] = 0 // all-zero features: every level index is 0
		}
	}
	return x
}

// TestEncodersMatchReferenceLoops pins the tentpole contract: the
// bit-sliced engine path of both paper encoders is bit-identical to the
// reference float loops (the pre-engine implementations).
func TestEncodersMatchReferenceLoops(t *testing.T) {
	for _, cfg := range engineGeometries {
		le := mustLevel(t, cfg)
		se := mustScalar(t, cfg)
		if le.engine == nil || se.engine == nil {
			t.Fatalf("%+v: engine not built for supported geometry", cfg)
		}
		for trial := 0; trial < 6; trial++ {
			x := engineInputs(cfg, trial)
			for name, enc := range map[string]Encoder{"level": le, "scalar": se} {
				got := enc.EncodeInto(x, make([]float64, cfg.Dim))
				var want []float64
				switch e := enc.(type) {
				case *LevelEncoder:
					want = e.encodeRefInto(x, make([]float64, cfg.Dim))
				case *ScalarEncoder:
					want = e.encodeRefInto(x, make([]float64, cfg.Dim))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s %+v trial %d dim %d: engine %v, reference %v",
							name, cfg, trial, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestNonFiniteInputsMatchReference pins the engine and the reference loops
// together on inputs no normalizer should let through — NaN, ±Inf and huge
// magnitudes — which must clamp to the end levels instead of indexing out
// of range.
func TestNonFiniteInputsMatchReference(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0.5}
	for _, cfg := range engineGeometries {
		x := make([]float64, cfg.Features)
		for k := range x {
			x[k] = odd[k%len(odd)]
		}
		le, se := mustLevel(t, cfg), mustScalar(t, cfg)
		for name, pair := range map[string][2][]float64{
			"level":  {le.EncodeInto(x, make([]float64, cfg.Dim)), le.encodeRefInto(x, make([]float64, cfg.Dim))},
			"scalar": {se.EncodeInto(x, make([]float64, cfg.Dim)), se.encodeRefInto(x, make([]float64, cfg.Dim))},
		} {
			for j := range pair[1] {
				if pair[0][j] != pair[1][j] {
					t.Fatalf("%s %+v dim %d: engine %v, reference %v", name, cfg, j, pair[0][j], pair[1][j])
				}
			}
		}
		if planes := le.BitPlanes(x); len(planes) != cfg.Features {
			t.Fatalf("%+v: BitPlanes returned %d planes, want %d", cfg, len(planes), cfg.Features)
		}
	}
}

// TestEncodePackedIntoMatchesEncodeQuantize checks the fused path against
// encoding and sign-quantizing by hand (the full cross-scheme equivalence
// against the quant package lives in the encslice and root pipeline tests,
// which may import it).
func TestEncodePackedIntoMatchesEncodeQuantize(t *testing.T) {
	for _, cfg := range engineGeometries {
		for _, enc := range []Encoder{mustLevel(t, cfg), mustScalar(t, cfg)} {
			x := engineInputs(cfg, 0)
			dst := intscore.NewPlanes(cfg.Dim)
			enc.EncodePackedInto(x, encslice.SchemeBipolar, dst)
			h := enc.Encode(x)
			for j, v := range h {
				want := int8(1)
				if v < 0 {
					want = -1
				}
				if dst.Symbol(j) != want {
					t.Fatalf("%+v dim %d: fused %d, sign(%v) = %d", cfg, j, dst.Symbol(j), v, want)
				}
			}
		}
	}
}

func TestEncodePackedIntoRejectsSchemeNone(t *testing.T) {
	cfg := engineGeometries[3]
	for _, enc := range []Encoder{mustLevel(t, cfg), mustScalar(t, cfg)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: EncodePackedInto accepted SchemeNone", enc)
				}
			}()
			enc.EncodePackedInto(engineInputs(cfg, 0), encslice.SchemeNone, intscore.NewPlanes(cfg.Dim))
		}()
	}
}

// TestEncodeBatchChunkBoundaries drives the atomic-cursor dispatch over row
// counts around the chunk size, including a batch smaller than one chunk.
func TestEncodeBatchChunkBoundaries(t *testing.T) {
	cfg := Config{Dim: 96, Features: 11, Levels: 6, Seed: 20}
	enc := mustLevel(t, cfg)
	for _, rows := range []int{1, encodeBatchChunk - 1, encodeBatchChunk, encodeBatchChunk + 1, 3*encodeBatchChunk + 5} {
		src := hrand.New(uint64(rows))
		X := make([][]float64, rows)
		for i := range X {
			X[i] = make([]float64, cfg.Features)
			for k := range X[i] {
				X[i][k] = src.Float64()
			}
		}
		got := EncodeBatch(enc, X, 3)
		for i := range X {
			want := enc.Encode(X[i])
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("rows=%d sample %d dim %d: batch %v, sequential %v",
						rows, i, j, got[i][j], want[j])
				}
			}
		}
	}
}

// TestEncodeBatchRowsAreWriteSafe verifies the contiguous-backing rows are
// full-capacity slices: appending to one must not bleed into its neighbour.
func TestEncodeBatchRowsAreWriteSafe(t *testing.T) {
	cfg := Config{Dim: 32, Features: 4, Levels: 4, Seed: 21}
	enc := mustLevel(t, cfg)
	X := [][]float64{{0.1, 0.5, 0.9, 0.3}, {0.8, 0.2, 0.6, 0.4}}
	out := EncodeBatch(enc, X, 1)
	want1 := append([]float64(nil), out[1]...)
	_ = append(out[0], 999) // must reallocate, not overwrite out[1][0]
	for j := range want1 {
		if out[1][j] != want1[j] {
			t.Fatalf("append to row 0 corrupted row 1 at dim %d", j)
		}
	}
}

// TestEncodersRefuseGeometryBeyondEngine pins the engine's limits as the
// encoders' limits: each is accepted at its boundary and refused with
// ErrGeometry one past it. Features ≥ MaxFeatures is checked only as a
// refusal, since Validate rejects it before anything is allocated.
func TestEncodersRefuseGeometryBeyondEngine(t *testing.T) {
	const F = 40000 // scalar features with features×(ℓ−1) at MaxInt32
	newLevel := func(cfg Config) (Encoder, error) { return NewLevelEncoder(cfg) }
	newScalar := func(cfg Config) (Encoder, error) { return NewScalarEncoder(cfg) }
	for _, tc := range []struct {
		name     string
		build    func(Config) (Encoder, error)
		features int
		levels   int
		refused  bool
	}{
		{"level/levels-at-limit", newLevel, 3, encslice.MaxLevels, false},
		{"level/levels-past-limit", newLevel, 3, encslice.MaxLevels + 1, true},
		{"level/features-at-engine-limit", newLevel, encslice.MaxFeatures, 2, true},
		{"scalar/levels-at-limit", newScalar, 3, encslice.MaxLevels, false},
		{"scalar/levels-past-limit", newScalar, 3, encslice.MaxLevels + 1, true},
		{"scalar/features-at-limit", newScalar, encslice.MaxLevels, 2, false},
		{"scalar/features-past-limit", newScalar, encslice.MaxLevels + 1, 2, true},
		{"scalar/numerator-at-limit", newScalar, F, math.MaxInt32/F + 1, false},
		{"scalar/numerator-past-limit", newScalar, F, math.MaxInt32/F + 2, true},
		{"scalar/features-at-engine-limit", newScalar, encslice.MaxFeatures, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := tc.build(Config{Dim: 64, Features: tc.features, Levels: tc.levels, Seed: 30})
			if !tc.refused {
				if err != nil {
					t.Fatalf("refused %d features, %d levels: %v", tc.features, tc.levels, err)
				}
				x := make([]float64, tc.features)
				x[0] = 1
				if h := enc.Encode(x); len(h) != 64 {
					t.Fatalf("encoded to %d dims, want 64", len(h))
				}
				return
			}
			if !errors.Is(err, ErrGeometry) {
				t.Fatalf("%d features, %d levels: err = %v, want ErrGeometry", tc.features, tc.levels, err)
			}
		})
	}
}

// TestEncodeQuantizedBatchMatchesFloatChain checks the training path's
// fused batch against the float chain it replaces — EncodeBatch, then the
// quant scheme on every row — for every paper scheme, both encodings and
// worker counts below and above the chunk count.
func TestEncodeQuantizedBatchMatchesFloatChain(t *testing.T) {
	schemes := []struct {
		q      quant.Quantizer
		scheme encslice.Scheme
	}{
		{quant.Bipolar{}, encslice.SchemeBipolar},
		{quant.Ternary{}, encslice.SchemeTernary},
		{quant.BiasedTernary{}, encslice.SchemeBiasedTernary},
		{quant.TwoBit{}, encslice.SchemeTwoBit},
	}
	for _, cfg := range engineGeometries {
		X := make([][]float64, 19)
		for i := range X {
			X[i] = engineInputs(cfg, i)
		}
		for name, enc := range map[string]Encoder{"level": mustLevel(t, cfg), "scalar": mustScalar(t, cfg)} {
			floats := EncodeBatch(enc, X, 1)
			for _, sc := range schemes {
				want := quant.QuantizeBatch(sc.q, floats)
				for _, workers := range []int{1, 3} {
					got := EncodeQuantizedBatch(enc, X, sc.scheme, workers)
					for i := range want {
						for j := range want[i] {
							if got[i][j] != want[i][j] {
								t.Fatalf("%+v %s %s workers=%d row %d dim %d: fused %v, float chain %v",
									cfg, name, sc.q.Name(), workers, i, j, got[i][j], want[i][j])
							}
						}
					}
				}
			}
		}
	}
}

// TestEncodeQuantizedBatchPoolsNothing checks that the training path
// leaves no pooled scratch pointing at its engine: once the encoder is
// dropped, a single GC cycle must find the engine unreachable. A used
// sync.Pool inside the engine would keep it reachable through that cycle.
func TestEncodeQuantizedBatchPoolsNothing(t *testing.T) {
	cfg := Config{Dim: 1000, Features: 30, Levels: 20, Seed: 5}
	X := make([][]float64, 20)
	for i := range X {
		X[i] = engineInputs(cfg, i)
	}
	freed := make(chan struct{})
	func() {
		le := mustLevel(t, cfg)
		runtime.SetFinalizer(le.engine, func(*encslice.Engine) { close(freed) })
		EncodeQuantizedBatch(le, X, encslice.SchemeBiasedTernary, 2)
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the engine outlived one GC cycle after EncodeQuantizedBatch")
	}
}
