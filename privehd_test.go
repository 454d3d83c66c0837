package privehd_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"privehd"
	"privehd/internal/encslice"
	"privehd/internal/hdc"
)

// toyData builds a linearly separable two-class task: class 0 lives near
// 0.25, class 1 near 0.75, with a deterministic per-sample wobble.
func toyData(n, features int) (X [][]float64, y []int) {
	for i := 0; i < n; i++ {
		c := i % 2
		center := 0.25 + 0.5*float64(c)
		x := make([]float64, features)
		for k := range x {
			x[k] = center + 0.02*float64((i+k)%5-2)
		}
		X = append(X, x)
		y = append(y, c)
	}
	return X, y
}

// toyPipeline returns a small trained pipeline plus its training data.
func toyPipeline(t *testing.T, opts ...privehd.Option) (*privehd.Pipeline, [][]float64, []int) {
	t.Helper()
	X, y := toyData(40, 12)
	base := []privehd.Option{
		privehd.WithDim(512),
		privehd.WithLevels(8),
		privehd.WithSeed(11),
		privehd.WithRetrain(1),
	}
	p, err := privehd.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return p, X, y
}

func TestNewOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []privehd.Option
		want string // substring of the error
	}{
		{"negative dim", []privehd.Option{privehd.WithDim(-1)}, "WithDim"},
		{"zero dim", []privehd.Option{privehd.WithDim(0)}, "WithDim"},
		{"one level", []privehd.Option{privehd.WithLevels(1)}, "WithLevels"},
		{"negative features", []privehd.Option{privehd.WithFeatures(-3)}, "WithFeatures"},
		{"negative classes", []privehd.Option{privehd.WithClasses(-1)}, "WithClasses"},
		{"unknown quantizer", []privehd.Option{privehd.WithQuantizer("nope")}, "unknown scheme"},
		{"negative pruning", []privehd.Option{privehd.WithPruning(-5)}, "WithPruning"},
		{"pruning beyond dim", []privehd.Option{privehd.WithDim(100), privehd.WithPruning(200)}, "WithPruning"},
		{"negative retrain", []privehd.Option{privehd.WithRetrain(-1)}, "WithRetrain"},
		{"negative epsilon", []privehd.Option{privehd.WithNoise(-1, 1e-5)}, "epsilon"},
		{"bad delta", []privehd.Option{privehd.WithNoise(1, 0)}, "delta"},
		{"bad encoding", []privehd.Option{privehd.WithEncoding(privehd.Encoding(9))}, "encoding"},
		{"edge-only mask", []privehd.Option{privehd.WithQueryMask(100)}, "WithQueryMask"},
		{"edge-only raw queries", []privehd.Option{privehd.WithRawQueries()}, "WithRawQueries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := privehd.New(tc.opts...)
			if err == nil {
				t.Fatalf("New(%s) succeeded, want error containing %q", tc.name, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The defaults themselves are valid.
	if _, err := privehd.New(); err != nil {
		t.Errorf("New() with defaults: %v", err)
	}
}

func TestNewEdgeOptionValidation(t *testing.T) {
	if _, err := privehd.NewEdge(privehd.WithDim(100)); err == nil ||
		!strings.Contains(err.Error(), "WithFeatures") {
		t.Errorf("NewEdge without features: err = %v, want WithFeatures requirement", err)
	}
	if _, err := privehd.NewEdge(privehd.WithFeatures(10), privehd.WithPruning(5)); err == nil ||
		!strings.Contains(err.Error(), "WithPruning") {
		t.Errorf("NewEdge with pipeline-only option: err = %v, want WithPruning rejection", err)
	}
	if _, err := privehd.NewEdge(privehd.WithFeatures(10), privehd.WithDim(100),
		privehd.WithQueryMask(100)); err == nil ||
		!strings.Contains(err.Error(), "WithQueryMask") {
		t.Errorf("NewEdge with full-dim mask: err = %v, want range error", err)
	}
	if _, err := privehd.NewEdge(privehd.WithFeatures(10), privehd.WithDim(256),
		privehd.WithLevels(4), privehd.WithQueryMask(64)); err != nil {
		t.Errorf("valid NewEdge: %v", err)
	}
}

// TestConstructorsRefuseEngineLimits pins the encoding engine's limits
// at construction: New and NewEdge each refuse one level past
// encslice.MaxLevels and encslice.MaxFeatures features with a privehd
// error wrapping hdc.ErrGeometry, before any encoder is built.
func TestConstructorsRefuseEngineLimits(t *testing.T) {
	cases := []struct {
		name string
		opt  privehd.Option
	}{
		{"levels", privehd.WithLevels(encslice.MaxLevels + 1)},
		{"features", privehd.WithFeatures(encslice.MaxFeatures)},
	}
	for _, tc := range cases {
		_, errNew := privehd.New(tc.opt)
		_, errEdge := privehd.NewEdge(privehd.WithFeatures(10), tc.opt)
		for ctor, err := range map[string]error{"New": errNew, "NewEdge": errEdge} {
			if !errors.Is(err, hdc.ErrGeometry) {
				t.Errorf("%s one past the %s limit: err = %v, want hdc.ErrGeometry", ctor, tc.name, err)
				continue
			}
			if prefix := "privehd: " + ctor + ": "; !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("%s one past the %s limit: err %q lacks the %q prefix", ctor, tc.name, err, prefix)
			}
		}
	}
	if _, err := privehd.New(privehd.WithLevels(encslice.MaxLevels), privehd.WithFeatures(encslice.MaxFeatures-1)); err != nil {
		t.Errorf("New at the engine limits: %v", err)
	}
}

func TestTrainPredictEvaluate(t *testing.T) {
	p, err := privehd.New(privehd.WithDim(512), privehd.WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]float64{0.5}); !errors.Is(err, privehd.ErrNotTrained) {
		t.Errorf("Predict before Train: err = %v, want ErrNotTrained", err)
	}
	if _, err := p.PredictBatch(nil); !errors.Is(err, privehd.ErrNotTrained) {
		t.Errorf("PredictBatch before Train: err = %v, want ErrNotTrained", err)
	}
	if p.Trained() {
		t.Error("Trained() true before Train")
	}

	pipe, X, y := toyPipeline(t)
	if !pipe.Trained() {
		t.Fatal("Trained() false after Train")
	}
	if pipe.Classes() != 2 || pipe.Features() != 12 {
		t.Fatalf("inferred geometry classes=%d features=%d", pipe.Classes(), pipe.Features())
	}
	acc, err := pipe.Evaluate(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Errorf("training accuracy %v on a separable toy task", acc)
	}
	// Batch prediction matches one-by-one prediction exactly.
	batch, err := pipe.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		single, err := pipe.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Fatalf("sample %d: batch %d != single %d", i, batch[i], single)
		}
	}
	// Wrong feature width is rejected.
	if _, err := pipe.Predict([]float64{0.1}); err == nil {
		t.Error("Predict with wrong width should fail")
	}
	if _, err := pipe.PredictBatch([][]float64{{0.1}}); err == nil {
		t.Error("PredictBatch with wrong width should fail")
	}
	// Samples of another width than WithFeatures pinned are refused.
	pinned, err := privehd.New(privehd.WithFeatures(3), privehd.WithDim(512), privehd.WithLevels(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.Train(X, y); err == nil {
		t.Error("Train with samples wider than WithFeatures should fail")
	}
}

// TestRaggedBatchRefused requires every batch entry point to refuse a
// batch whose second row is narrower than the first with an error naming
// that row, rather than panic inside the encoder.
func TestRaggedBatchRefused(t *testing.T) {
	pipe, X, y := toyPipeline(t)
	ragged := [][]float64{X[0], X[1][:5], X[2]}
	edge, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *privehd.Pipeline {
		p, err := privehd.New(privehd.WithDim(512), privehd.WithLevels(8))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	calls := map[string]func() error{
		"Train": func() error { return fresh().Train(ragged, y[:3]) },
		"TrainOnline": func() error {
			_, err := fresh().TrainOnline(ragged, y[:3])
			return err
		},
		"Evaluate": func() error {
			_, err := pipe.Evaluate(ragged, y[:3])
			return err
		},
		"PredictBatch": func() error {
			_, err := pipe.PredictBatch(ragged)
			return err
		},
		"PrepareBatch": func() error {
			_, err := edge.PrepareBatch(ragged)
			return err
		},
	}
	for name, call := range calls {
		want := "privehd: " + name + " sample 1 has 5 features"
		if err := call(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on a ragged batch: err = %v, want %q", name, err, want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pipe, X, _ := toyPipeline(t,
		privehd.WithQuantizer("ternary-biased"),
		privehd.WithPruning(256),
		privehd.WithNoise(8, 1e-5),
	)
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := privehd.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim() != pipe.Dim() || loaded.Classes() != pipe.Classes() ||
		loaded.Features() != pipe.Features() {
		t.Fatalf("loaded geometry dim=%d classes=%d features=%d",
			loaded.Dim(), loaded.Classes(), loaded.Features())
	}
	if lr, pr := loaded.Report(), pipe.Report(); lr != pr {
		// Reports hold only comparable scalar fields.
		t.Errorf("loaded report %+v != saved %+v", lr, pr)
	}
	want, err := pipe.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: loaded pipeline predicts %d, original %d", i, got[i], want[i])
		}
	}

	// Untrained pipelines don't serialize.
	empty, err := privehd.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Save(&bytes.Buffer{}); !errors.Is(err, privehd.ErrNotTrained) {
		t.Errorf("Save untrained: err = %v, want ErrNotTrained", err)
	}
	// Garbage doesn't load.
	if _, err := privehd.Load(bytes.NewReader([]byte("not a pipeline"))); err == nil {
		t.Error("Load of garbage should fail")
	}
}

func TestCalibration(t *testing.T) {
	p, err := privehd.New(privehd.WithFeatures(100), privehd.WithNoise(1, 1e-5),
		privehd.WithDim(2000), privehd.WithPruning(1000))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := p.Calibration()
	if err != nil {
		t.Fatal(err)
	}
	if cal.KeptDims != 1000 || cal.Sensitivity <= 0 || cal.SigmaFactor <= 0 {
		t.Errorf("calibration = %+v", cal)
	}
	if cal.RawSensitivity <= cal.Sensitivity {
		t.Errorf("quantization should shrink sensitivity: raw %v vs %v",
			cal.RawSensitivity, cal.Sensitivity)
	}

	// Missing features or budget is an error.
	noFeat, _ := privehd.New(privehd.WithNoise(1, 1e-5))
	if _, err := noFeat.Calibration(); err == nil {
		t.Error("Calibration without features should fail")
	}
	noEps, _ := privehd.New(privehd.WithFeatures(100))
	if _, err := noEps.Calibration(); err == nil {
		t.Error("Calibration without a budget should fail")
	}
}

// TestCalibrationMatchesTrainedReport pins the one sensitivity rule: for
// every paper quantizer and for "full", pruned and unpruned, the
// calibration computed before training equals, bit for bit, the report of
// the private pipeline it describes.
func TestCalibrationMatchesTrainedReport(t *testing.T) {
	for _, q := range []string{"bipolar", "ternary", "ternary-biased", "2bit", "full"} {
		for _, keep := range []int{0, 300} {
			p, _, _ := toyPipeline(t, privehd.WithQuantizer(q), privehd.WithPruning(keep),
				privehd.WithNoise(2, 1e-5))
			cal, err := p.Calibration()
			if err != nil {
				t.Fatal(err)
			}
			r := p.Report()
			if !r.Private || cal.Sensitivity != r.Sensitivity || cal.SigmaFactor != r.SigmaFactor ||
				cal.NoiseStd != r.NoiseStd || cal.KeptDims != r.KeptDims {
				t.Errorf("%s keep=%d: calibration %+v, trained report %+v", q, keep, cal, r)
			}
		}
	}
}

func TestEdgeObfuscation(t *testing.T) {
	// Scalar encoding (Eq. 2a) is the form the reconstruction analysis is
	// written against.
	pipe, X, _ := toyPipeline(t, privehd.WithEncoding(privehd.Scalar))
	edge, err := pipe.Edge(privehd.WithQueryMask(128))
	if err != nil {
		t.Fatal(err)
	}
	q, err := edge.Prepare(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != pipe.Dim() {
		t.Fatalf("prepared query dim %d, want %d", len(q), pipe.Dim())
	}
	zeros := 0
	for _, v := range q {
		switch v {
		case 0:
			zeros++
		case 1, -1:
		default:
			t.Fatalf("obfuscated query leaked unquantized value %v", v)
		}
	}
	if zeros < 128 {
		t.Errorf("query has %d zeros, want ≥ mask size 128", zeros)
	}
	// The eavesdropper's reconstruction round-trip runs end to end. (That
	// obfuscation degrades reconstruction on real workloads is asserted by
	// the offload end-to-end test and TestFullLifecycle; this toy task is
	// too small for a stable MSE comparison.)
	truth := edge.QuantizeTruth(X[0])
	recon, err := edge.Reconstruct(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != edge.Features() {
		t.Fatalf("reconstruction has %d features, want %d", len(recon), edge.Features())
	}
	if m := privehd.MeasureReconstruction(truth, recon); m.MSE <= 0 {
		t.Errorf("obfuscated reconstruction suspiciously exact: %+v", m)
	}

	// An untrained pipeline without features cannot derive an edge.
	bare, _ := privehd.New()
	if _, err := bare.Edge(); err == nil {
		t.Error("Edge from a featureless pipeline should fail")
	}
}

func TestEdgeReconstructConcurrent(t *testing.T) {
	// Every goroutine sharing an edge may run the eavesdropper's attack on
	// it at once: the base hypervectors it reads are race-free to read back.
	pipe, X, _ := toyPipeline(t)
	edge, err := pipe.Edge()
	if err != nil {
		t.Fatal(err)
	}
	q, err := edge.Prepare(X[0])
	if err != nil {
		t.Fatal(err)
	}
	var recon [2][]float64
	errs := make(chan error, len(recon))
	for i := range recon {
		go func() {
			var err error
			recon[i], err = edge.Reconstruct(q)
			errs <- err
		}()
	}
	for range recon {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := range recon[0] {
		if recon[0][k] != recon[1][k] {
			t.Fatalf("feature %d: concurrent reconstructions differ, %v vs %v", k, recon[0][k], recon[1][k])
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	// Equal options and seeds give byte-identical behavior.
	p1, X, _ := toyPipeline(t, privehd.WithQuantizer("bipolar"))
	p2, _, _ := toyPipeline(t, privehd.WithQuantizer("bipolar"))
	l1, err := p1.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := p2.PredictBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("sample %d: %d vs %d with equal seeds", i, l1[i], l2[i])
		}
	}
}
