package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"privehd/internal/dp"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/quant"
)

// fastPathConfigs crosses encodings × paper quantizers × pruning × DP —
// every combination the fused bit-sliced Predict path must match the float
// reference chain on, bit for bit.
func fastPathConfigs() []Config {
	var out []Config
	for _, enc := range []Encoding{EncodingLevel, EncodingScalar} {
		for _, q := range []quant.Quantizer{
			quant.Bipolar{}, quant.Ternary{}, quant.BiasedTernary{}, quant.TwoBit{}, quant.Identity{},
		} {
			cfg := Config{
				HD:        hdc.Config{Dim: 450, Features: 19, Levels: 12, Seed: 77},
				Encoding:  enc,
				Quantizer: q,
			}
			out = append(out, cfg)
			pruned := cfg
			pruned.KeepDims = 300
			pruned.RetrainEpochs = 1
			out = append(out, pruned)
			noised := cfg
			noised.DP = &dp.Params{Epsilon: 2, Delta: 1e-5}
			out = append(out, noised)
		}
	}
	return out
}

func fastPathData(features int) ([][]float64, []int) {
	src := hrand.New(99)
	const samples, classes = 40, 5
	X := make([][]float64, samples)
	y := make([]int, samples)
	for i := range X {
		x := make([]float64, features)
		for k := range x {
			x[k] = src.Float64()
		}
		X[i] = x
		y[i] = i % classes
	}
	return X, y
}

// TestPredictFusedMatchesFloatChain pins the acceptance contract: Predict's
// fused integer-domain chain classifies exactly like the float reference
// chain (PrepareQuery + Model.Predict) for every quantizer, pruned or not,
// DP-noised or not, on both encodings and on precomputed and lazily-normed
// models alike.
func TestPredictFusedMatchesFloatChain(t *testing.T) {
	for _, cfg := range fastPathConfigs() {
		X, y := fastPathData(cfg.HD.Features)
		p, err := TrainData(cfg, X, y, 5)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		check := func(stage string) {
			for i, x := range X {
				want := p.Model().Predict(p.PrepareQuery(x))
				if got := p.Predict(x); got != want {
					t.Fatalf("%s %s/%s sample %d: fused Predict %d, float chain %d",
						stage, cfg.Quantizer.Name(), encName(cfg.Encoding), i, got, want)
				}
			}
		}
		check("lazy") // no Precompute: the first packed Predict derives the integer engine
		p.Model().Precompute()
		check("precomputed")
	}
}

func encName(e Encoding) string {
	if e == EncodingScalar {
		return "scalar"
	}
	return "level"
}

// TestPredictBatchMatchesPredict checks the atomic-cursor batch dispatch
// returns exactly the sequential labels, at worker counts above and below
// the row count.
func TestPredictBatchMatchesPredict(t *testing.T) {
	cfg := Config{
		HD:        hdc.Config{Dim: 300, Features: 17, Levels: 8, Seed: 3},
		Encoding:  EncodingLevel,
		Quantizer: quant.BiasedTernary{},
	}
	X, y := fastPathData(cfg.HD.Features)
	for _, workers := range []int{0, 1, 3, 64} {
		cfg.Workers = workers
		p, err := TrainData(cfg, X, y, 5)
		if err != nil {
			t.Fatal(err)
		}
		got := p.PredictBatch(X)
		for i, x := range X {
			if want := p.Predict(x); got[i] != want {
				t.Fatalf("workers=%d sample %d: batch %d, sequential %d", workers, i, got[i], want)
			}
		}
	}
	// Empty batch must not touch the model.
	p, err := TrainData(cfg, X, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out := p.PredictBatch(nil); len(out) != 0 {
		t.Fatalf("PredictBatch(nil) returned %v", out)
	}
}

// TestConcurrentBatchOnFloatModel runs PredictBatch and Predict at once on
// an unquantized scalar pipeline, whose classes are not integers. Its
// engine scores them in fixed point, so once PredictBatch has frozen the
// model the engine is there and no later call re-freezes it under
// concurrent readers. Run under -race; every label must match the
// sequential answer.
func TestConcurrentBatchOnFloatModel(t *testing.T) {
	cfg := Config{
		HD:        hdc.Config{Dim: 450, Features: 19, Levels: 12, Seed: 5},
		Encoding:  EncodingScalar,
		Quantizer: quant.Identity{},
		Workers:   2,
	}
	X, y := fastPathData(cfg.HD.Features)
	p, err := TrainData(cfg, X, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := p.PredictBatch(X) // freezes the model
	if e := p.Model().PackedScorer(); e == nil || e.PlaneBits() != 32 {
		t.Fatalf("PackedScorer = %v; want a fixed-point (int32-width) engine", e)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i, label := range p.PredictBatch(X) {
					if label != want[i] {
						errs <- fmt.Sprintf("PredictBatch sample %d: %d, want %d", i, label, want[i])
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i, x := range X {
					if label := p.Predict(x); label != want[i] {
						errs <- fmt.Sprintf("Predict sample %d: %d, want %d", i, label, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestEdgePrepareFusedMatchesReference checks the edge's fused 1-bit path
// against encode-then-quantize-then-mask done by hand, on both encodings,
// unmasked, with a quarter masked and with all but one dimension masked
// (a level edge then encodes from its compacted memory).
func TestEdgePrepareFusedMatchesReference(t *testing.T) {
	const dim = 310
	for _, enc := range []Encoding{EncodingLevel, EncodingScalar} {
		for _, maskDims := range []int{0, dim / 4, dim - 1} {
			e, err := NewEdge(EdgeConfig{
				HD:       hdc.Config{Dim: dim, Features: 21, Levels: 10, Seed: 8},
				Encoding: enc,
				Quantize: true,
				MaskDims: maskDims,
				MaskSeed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			X, _ := fastPathData(21)
			packed := intscore.NewPlanes(dim)
			for i, x := range X[:8] {
				want := quant.Bipolar{}.Quantize(e.Encoder().Encode(x))
				if m := e.Mask(); m != nil {
					m.Apply(want)
				}
				wantPk, _ := intscore.PackInto(want, nil)
				got := e.Prepare(x)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("enc=%v mask=%d sample %d dim %d: fused %v, reference %v",
							enc, maskDims, i, j, got[j], want[j])
					}
				}
				for w := range packed.Bits {
					packed.Bits[w] = ^uint64(0) // stale bits must be overwritten
				}
				e.PreparePackedInto(x, packed)
				if !slices.Equal(packed.Bits, intscore.Split(wantPk).Bits) {
					t.Fatalf("enc=%v mask=%d sample %d: planes differ from the reference's", enc, maskDims, i)
				}
			}
			// PrepareBatch must agree with Prepare row by row.
			batch := e.PrepareBatch(X, 3)
			for i, x := range X {
				want := e.Prepare(x)
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
	_, err := NewEdge(EdgeConfig{
		HD:       hdc.Config{Dim: 130, Features: 5, Levels: 1<<16 + 1, Seed: 4},
		Encoding: EncodingScalar,
		Quantize: true,
		MaskDims: 30,
		MaskSeed: 9,
	})
	if !errors.Is(err, hdc.ErrGeometry) {
		t.Fatalf("NewEdge with 2^16+1 levels: err = %v, want hdc.ErrGeometry", err)
	}
}

// TestPredictZeroAllocs pins the serving contract: the fused Predict chain
// allocates nothing per query once the pools are warm.
func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, q := range []quant.Quantizer{quant.Bipolar{}, quant.BiasedTernary{}, quant.TwoBit{}} {
		cfg := Config{
			HD:        hdc.Config{Dim: 512, Features: 33, Levels: 16, Seed: 5},
			Encoding:  EncodingLevel,
			Quantizer: q,
		}
		X, y := fastPathData(cfg.HD.Features)
		p, err := TrainData(cfg, X, y, 5)
		if err != nil {
			t.Fatal(err)
		}
		p.Model().Precompute()
		x := X[0]
		p.Predict(x) // warm the pools
		p.Predict(x)
		if n := testing.AllocsPerRun(50, func() { p.Predict(x) }); n != 0 {
			t.Errorf("%s: Predict allocates %v per run", q.Name(), n)
		}
	}
}
