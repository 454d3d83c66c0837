package privehd

// Tests of the §III-B training pipeline and of the fused Predict chain,
// reaching into the pipeline's model, mask and encoder.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"privehd/internal/dataset"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/quant"
)

// smallTask returns a quick separable dataset for pipeline tests.
func smallTask(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Gaussian(dataset.GaussianSpec{
		Name: "pipeline-test", Features: 60, Classes: 4, TrainPer: 25, TestPer: 10,
		Separation: 0.2, Noise: 0.08, ActiveFraction: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// trainSmall trains on smallTask at D=2000 over 16 levels, unquantized
// and without retraining unless opts say otherwise.
func trainSmall(t *testing.T, d *dataset.Dataset, opts ...Option) *Pipeline {
	t.Helper()
	base := []Option{WithDim(2000), WithLevels(16), WithSeed(2), WithQuantizer("full"), WithRetrain(0)}
	p, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(d.TrainX, d.TrainY); err != nil {
		t.Fatal(err)
	}
	return p
}

// testAccuracy is the pipeline's accuracy on d's test split.
func testAccuracy(t *testing.T, p *Pipeline, d *dataset.Dataset) float64 {
	t.Helper()
	acc, err := p.Evaluate(d.TestX, d.TestY)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestTrainBaseline(t *testing.T) {
	d := smallTask(t)
	p := trainSmall(t, d)
	if acc := testAccuracy(t, p, d); acc < 0.9 {
		t.Errorf("baseline accuracy = %v, want ≥ 0.9", acc)
	}
	r := p.Report()
	if r.Private || r.NoiseStd != 0 {
		t.Errorf("non-private pipeline reported privacy: %+v", r)
	}
	if r.KeptDims != 2000 {
		t.Errorf("KeptDims = %d", r.KeptDims)
	}
}

func TestTrainQuantized(t *testing.T) {
	d := smallTask(t)
	for _, q := range quant.Schemes() {
		p := trainSmall(t, d, WithQuantizer(q.Name()))
		if acc := testAccuracy(t, p, d); acc < 0.85 {
			t.Errorf("%s accuracy = %v, want ≥ 0.85 on easy task", q.Name(), acc)
		}
	}
}

func TestTrainPruned(t *testing.T) {
	d := smallTask(t)
	p := trainSmall(t, d, WithQuantizer("ternary"), WithPruning(800), WithRetrain(2))
	if p.mask == nil {
		t.Fatal("expected a pruning mask")
	}
	if got := p.mask.Kept(); got != 800 {
		t.Errorf("kept dims = %d, want 800", got)
	}
	// Pruned dims must be zero in every class.
	for l := 0; l < p.model.NumClasses(); l++ {
		c := p.model.Class(l)
		for j, keep := range p.mask.Keep {
			if !keep && c[j] != 0 {
				t.Fatalf("pruned dim %d of class %d is %v", j, l, c[j])
			}
		}
	}
	if acc := testAccuracy(t, p, d); acc < 0.85 {
		t.Errorf("pruned accuracy = %v", acc)
	}
	if p.Report().KeptDims != 800 {
		t.Errorf("report kept = %d", p.Report().KeptDims)
	}
}

func TestTrainPrivate(t *testing.T) {
	d := smallTask(t)
	p := trainSmall(t, d, WithQuantizer("ternary-biased"), WithPruning(1000), WithRetrain(1),
		WithNoise(4, 1e-5), WithNoiseSeed(3))
	r := p.Report()
	if !r.Private {
		t.Fatal("expected a private report")
	}
	// Sensitivity must be the Eq. 14 value over kept dims: sqrt(1000/2).
	if want := math.Sqrt(500); math.Abs(r.Sensitivity-want) > 1e-9 {
		t.Errorf("sensitivity = %v, want %v", r.Sensitivity, want)
	}
	if r.NoiseStd <= 0 || r.SigmaFactor <= 0 {
		t.Errorf("noise fields not populated: %+v", r)
	}
	if r.Epsilon != 4 || r.Delta != 1e-5 {
		t.Errorf("budget echo wrong: %+v", r)
	}
	// With a loose ε on an easy task, accuracy should survive.
	if acc := testAccuracy(t, p, d); acc < 0.75 {
		t.Errorf("private accuracy = %v, want ≥ 0.75", acc)
	}
	// Noise must not have landed on pruned dimensions.
	for l := 0; l < p.model.NumClasses(); l++ {
		c := p.model.Class(l)
		for j, keep := range p.mask.Keep {
			if !keep && c[j] != 0 {
				t.Fatalf("noise on pruned dim %d", j)
			}
		}
	}
}

func TestTrainPrivateUnquantizedUsesRawSensitivity(t *testing.T) {
	d := smallTask(t)
	p := trainSmall(t, d, WithNoise(1000, 1e-5)) // absurd ε so accuracy survives
	want := quant.RawL2Sensitivity(2000, d.Features)
	if math.Abs(p.Report().Sensitivity-want) > 1e-9 {
		t.Errorf("sensitivity = %v, want Eq.12 %v", p.Report().Sensitivity, want)
	}
}

func TestPrivacyCostOrdering(t *testing.T) {
	// Tight ε must cost at least as much accuracy as loose ε (Fig. 8).
	d := smallTask(t)
	accAt := func(eps float64) float64 {
		return testAccuracy(t, trainSmall(t, d, WithQuantizer("ternary"), WithNoise(eps, 1e-5), WithNoiseSeed(7)), d)
	}
	loose, tight := accAt(8), accAt(0.01)
	if tight > loose+0.05 {
		t.Errorf("tight ε accuracy %v should not beat loose %v", tight, loose)
	}
}

func TestScalarEncodingPipeline(t *testing.T) {
	d := smallTask(t)
	p := trainSmall(t, d, WithEncoding(Scalar))
	if acc := testAccuracy(t, p, d); acc < 0.85 {
		t.Errorf("scalar pipeline accuracy = %v", acc)
	}
	if _, ok := p.encoder.(*hdc.ScalarEncoder); !ok {
		t.Errorf("encoder type = %T", p.encoder)
	}
}

func TestPredictMatchesEvaluate(t *testing.T) {
	d := smallTask(t)
	p := trainSmall(t, d)
	correct := 0
	for i, x := range d.TestX {
		label, err := p.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if label == d.TestY[i] {
			correct++
		}
	}
	manual := float64(correct) / float64(len(d.TestX))
	if got := testAccuracy(t, p, d); math.Abs(got-manual) > 1e-12 {
		t.Errorf("Evaluate %v != per-sample %v", got, manual)
	}
}

// fastPathConfigs crosses encodings × paper quantizers × pruning × DP —
// every combination the fused bit-sliced Predict path must match the float
// reference chain on, bit for bit.
func fastPathConfigs() [][]Option {
	var out [][]Option
	for _, enc := range []Encoding{Level, Scalar} {
		for _, q := range []string{"bipolar", "ternary", "ternary-biased", "2bit", "full"} {
			cfg := []Option{WithDim(450), WithFeatures(19), WithLevels(12), WithSeed(77),
				WithEncoding(enc), WithQuantizer(q), WithRetrain(0)}
			out = append(out,
				cfg,
				append(cfg[:len(cfg):len(cfg)], WithPruning(300), WithRetrain(1)),
				append(cfg[:len(cfg):len(cfg)], WithNoise(2, 1e-5)))
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

// trainFastPath trains a pipeline on fastPathData.
func trainFastPath(t testing.TB, opts ...Option) (*Pipeline, [][]float64) {
	t.Helper()
	p, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	X, y := fastPathData(p.Features())
	if err := p.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return p, X
}

// predictOne is Predict that fails the test on error.
func predictOne(t testing.TB, p *Pipeline, x []float64) int {
	label, err := p.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	return label
}

// TestPredictFusedMatchesFloatChain pins the acceptance contract: Predict's
// fused integer-domain chain classifies exactly like the float reference
// chain (encode, quantize, mask, then Model.Predict) for every quantizer,
// pruned or not, DP-noised or not, on both encodings and on precomputed
// and lazily-normed models alike.
func TestPredictFusedMatchesFloatChain(t *testing.T) {
	for _, opts := range fastPathConfigs() {
		p, X := trainFastPath(t, opts...)
		check := func(stage string) {
			for i, x := range X {
				h := p.cfg.quantizer.Quantize(p.encoder.Encode(x))
				if p.mask != nil {
					p.mask.Apply(h)
				}
				want := p.model.Predict(h)
				if got := predictOne(t, p, x); got != want {
					t.Fatalf("%s %s/%s sample %d: fused Predict %d, float chain %d",
						stage, p.cfg.quantizer.Name(), p.cfg.encoding, i, got, want)
				}
			}
		}
		p.model = p.model.Clone() // drop the frozen caches: the first packed Predict derives the integer engine
		check("lazy")
		p.model.Precompute()
		check("precomputed")
	}
}

// TestPredictBatchMatchesPredict checks the atomic-cursor batch dispatch
// returns exactly the sequential labels, at worker counts above and below
// the row count.
func TestPredictBatchMatchesPredict(t *testing.T) {
	cfg := []Option{WithDim(300), WithFeatures(17), WithLevels(8), WithSeed(3), WithRetrain(0)}
	for _, workers := range []int{0, 1, 3, 64} {
		p, X := trainFastPath(t, append(cfg, WithWorkers(workers))...)
		got, err := p.PredictBatch(X)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range X {
			if want := predictOne(t, p, x); got[i] != want {
				t.Fatalf("workers=%d sample %d: batch %d, sequential %d", workers, i, got[i], want)
			}
		}
	}
	// An empty batch must not touch the model.
	p, _ := trainFastPath(t, cfg...)
	if out, err := p.PredictBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("PredictBatch(nil) returned %v, %v", out, err)
	}
}

// TestConcurrentBatchOnFloatModel runs PredictBatch and Predict at once on
// an unquantized scalar pipeline, whose classes are not integers. Its
// engine scores them in fixed point; training froze the model, so the
// engine is there and no call re-freezes it under concurrent readers.
// Run under -race; every label must match the sequential answer.
func TestConcurrentBatchOnFloatModel(t *testing.T) {
	p, X := trainFastPath(t, WithDim(450), WithFeatures(19), WithLevels(12), WithSeed(5),
		WithEncoding(Scalar), WithQuantizer("full"), WithRetrain(0), WithWorkers(2))
	want, err := p.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.model.PackedScorer(); e == nil || e.PlaneBits() != 32 {
		t.Fatalf("PackedScorer = %v; want a fixed-point (int32-width) engine", e)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				labels, err := p.PredictBatch(X)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i, label := range labels {
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
					if label, err := p.Predict(x); err != nil || label != want[i] {
						errs <- fmt.Sprintf("Predict sample %d: %d (%v), want %d", i, label, err, want[i])
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

// TestPredictZeroAllocs pins the serving contract: the fused Predict chain
// allocates nothing per query once the pools are warm.
func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, q := range []string{"bipolar", "ternary-biased", "2bit"} {
		p, X := trainFastPath(t, WithDim(512), WithFeatures(33), WithLevels(16), WithSeed(5),
			WithQuantizer(q), WithRetrain(0))
		x := X[0]
		predictOne(t, p, x) // warm the pools
		predictOne(t, p, x)
		if n := testing.AllocsPerRun(50, func() { p.Predict(x) }); n != 0 {
			t.Errorf("%s: Predict allocates %v per run", q, n)
		}
	}
}

// benchPipeline trains a small-but-realistic pipeline: ISOLET-shaped inputs
// (617 features) into D_hv = 4,000 with the paper-default biased-ternary
// encoding quantization — the Predict hot path a serving deployment runs
// per query.
func benchPipeline(b *testing.B) (*Pipeline, []float64) {
	b.Helper()
	src := hrand.New(42)
	const samples, classes, features = 64, 8, 617
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
	p, err := New(WithDim(4000), WithLevels(100), WithSeed(7), WithRetrain(0))
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Train(X, y); err != nil {
		b.Fatal(err)
	}
	return p, X[0]
}

func BenchmarkPipelinePredict(b *testing.B) {
	p, x := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Predict(x)
	}
}

func BenchmarkPipelinePredictParallel(b *testing.B) {
	p, x := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_, _ = p.Predict(x)
		}
	})
}
