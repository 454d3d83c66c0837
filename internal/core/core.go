// Package core is the Prive-HD library: the privacy-preserving training and
// inference pipelines of the paper, assembled from the hdc, quant, prune
// and dp substrates.
//
// Training (§III-B): encode → quantize encodings (Eq. 13) → bundle class
// hypervectors (Eq. 3) → prune close-to-zero dimensions and retrain with
// the mask (§III-B1) → add calibrated Gaussian noise once (Eq. 8). The
// noise is applied after retraining and the noisy model is never retrained
// — "as it violates the concept of differential privacy".
//
// Fidelity note: the paper bounds the mechanism's ℓ2 sensitivity by the
// norm of a single (quantized) encoding, treating the retrained model like
// the one-shot sum of Eq. 3. Strictly, Eq. 5 retraining can bundle a sample
// more than once, which would enlarge the true sensitivity; this
// reproduction follows the paper's accounting and flags the caveat here
// rather than silently "fixing" the paper.
//
// Inference (§III-C): the edge encodes, quantizes (1-bit) and masks the
// query before offloading; the cloud-side model stays full precision and
// needs no modification or access.
package core

import (
	"fmt"
	"sync"

	"privehd/internal/dataset"
	"privehd/internal/dp"
	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/prune"
	"privehd/internal/quant"
	"privehd/internal/vecmath"
)

// Encoding selects which paper encoding the pipeline uses.
type Encoding int

const (
	// EncodingLevel is Eq. 2b (level ⊙ base XNOR), the hardware-friendly
	// default.
	EncodingLevel Encoding = iota
	// EncodingScalar is Eq. 2a (scalar × base), the form the
	// reconstruction-attack analysis is written against.
	EncodingScalar
)

// Config assembles a Prive-HD training pipeline.
type Config struct {
	// HD is the encoder geometry (dimension, features, levels, seed).
	HD hdc.Config
	// Encoding selects Eq. 2a or 2b.
	Encoding Encoding
	// Quantizer is applied to every training encoding (Eq. 13). Use
	// quant.Identity{} for the non-quantized baseline. Required.
	Quantizer quant.Quantizer
	// KeepDims > 0 prunes the trained model down to this many effective
	// dimensions (§III-B1) before retraining; 0 keeps every dimension.
	KeepDims int
	// RetrainEpochs is the number of Eq. 5 passes after one-shot training
	// (with the pruning mask enforced if any). The paper finds 1–2
	// sufficient (Fig. 4).
	RetrainEpochs int
	// DP, when non-nil, makes the released model (ε,δ)-differentially
	// private by Gaussian noise scaled to the quantizer's Eq. 14
	// sensitivity (or Eq. 12 when unquantized).
	DP *dp.Params
	// NoiseSeed seeds the DP noise stream (independent of HD.Seed).
	NoiseSeed uint64
	// Workers bounds encoding parallelism; 0 uses GOMAXPROCS.
	Workers int
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if err := c.HD.Validate(); err != nil {
		return err
	}
	if c.Quantizer == nil {
		return fmt.Errorf("core: Config.Quantizer is required (use quant.Identity{} for none)")
	}
	if c.KeepDims < 0 || c.KeepDims > c.HD.Dim {
		return fmt.Errorf("core: KeepDims %d out of range [0,%d]", c.KeepDims, c.HD.Dim)
	}
	if c.RetrainEpochs < 0 {
		return fmt.Errorf("core: RetrainEpochs must be non-negative")
	}
	if c.DP != nil {
		if err := c.DP.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// newEncoder builds the configured paper encoder.
func newEncoder(cfg Config) (hdc.Encoder, error) {
	switch cfg.Encoding {
	case EncodingLevel:
		return hdc.NewLevelEncoder(cfg.HD)
	case EncodingScalar:
		return hdc.NewScalarEncoder(cfg.HD)
	}
	return nil, fmt.Errorf("core: unknown encoding %d", cfg.Encoding)
}

// PrivacyReport summarizes the privacy mechanics of a trained pipeline, the
// quantities the experiment report (cmd/privehd-experiments) quotes per
// run.
type PrivacyReport struct {
	// Quantizer is the encoding quantization scheme name.
	Quantizer string
	// Dim and KeptDims describe the model geometry after pruning.
	Dim      int
	KeptDims int
	// Sensitivity is the ℓ2 bound used for calibration (Eq. 12 or 14,
	// over the kept dimensions).
	Sensitivity float64
	// SigmaFactor and NoiseStd describe the applied Gaussian mechanism;
	// zero when the pipeline is non-private.
	SigmaFactor float64
	NoiseStd    float64
	// Epsilon and Delta echo the budget; zero when non-private.
	Epsilon float64
	Delta   float64
	// Private reports whether noise was applied.
	Private bool
}

// Pipeline is a trained Prive-HD classifier.
type Pipeline struct {
	cfg     Config
	encoder hdc.Encoder
	model   *hdc.Model
	mask    *prune.Mask // nil when unpruned
	keep    []uint64    // mask.Words(), the query planes' AND mask
	report  PrivacyReport

	// scheme enables the fused bit-sliced encode→quantize fast path: when
	// the configured quantizer maps onto a packed scheme, Predict derives
	// the −2…+1 query's bit-planes straight from integer popcounts — no
	// float hypervector, no separate quantization pass. SchemeNone
	// (Identity, or a custom quantizer) takes the float path. Resolved
	// once at construction.
	scheme encslice.Scheme

	// scratch recycles per-query encode/quantize/score buffers across
	// Predict calls — the serving hot path answers each query with zero
	// heap allocations. Buffers are per-goroutine via sync.Pool, so
	// concurrent Predict calls stay safe.
	scratch sync.Pool
}

// predictScratch is one goroutine's reusable Predict working set.
type predictScratch struct {
	h      []float64       // raw encoding
	q      []float64       // quantized query
	planes intscore.Planes // the fused path's query
	packed []int8          // packed-alphabet form of q for the integer engine
	scores []float64       // per-class similarities
}

// getScratch returns a scratch sized for the pipeline's geometry.
func (p *Pipeline) getScratch() *predictScratch {
	if s, ok := p.scratch.Get().(*predictScratch); ok {
		return s
	}
	return &predictScratch{
		h:      make([]float64, p.cfg.HD.Dim),
		q:      make([]float64, p.cfg.HD.Dim),
		planes: intscore.NewPlanes(p.cfg.HD.Dim),
		packed: make([]int8, p.cfg.HD.Dim),
		scores: make([]float64, p.model.NumClasses()),
	}
}

// packedScheme maps a quant scheme onto the engine's fused quantization
// rule; SchemeNone means the quantizer has no packed form (Identity, or a
// custom implementation) and inference must go through the float path.
func packedScheme(q quant.Quantizer) encslice.Scheme {
	switch q.(type) {
	case quant.Bipolar:
		return encslice.SchemeBipolar
	case quant.Ternary:
		return encslice.SchemeTernary
	case quant.BiasedTernary:
		return encslice.SchemeBiasedTernary
	case quant.TwoBit:
		return encslice.SchemeTwoBit
	}
	return encslice.SchemeNone
}

// initFastPath resolves the fused encode→quantize scheme, and the mask's
// plane words, once so Predict only pays a compare per query. It runs
// once the pruning mask is final.
func (p *Pipeline) initFastPath() {
	if p.mask != nil {
		p.keep = p.mask.Words()
	}
	p.scheme = packedScheme(p.cfg.Quantizer)
}

// Train runs the full §III-B pipeline on the dataset's training split.
func Train(cfg Config, d *dataset.Dataset) (*Pipeline, error) {
	if d.Features != cfg.HD.Features {
		return nil, fmt.Errorf("core: dataset has %d features, config %d", d.Features, cfg.HD.Features)
	}
	return TrainData(cfg, d.TrainX, d.TrainY, d.Classes)
}

// TrainData runs the full §III-B pipeline on raw samples and labels; classes
// is the number of distinct labels. This is the dataset-free entry point the
// public facade builds on.
func TrainData(cfg Config, X [][]float64, y []int, classes int) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(X) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("core: %d samples, %d labels", len(X), len(y))
	}
	if len(X[0]) != cfg.HD.Features {
		return nil, fmt.Errorf("core: samples have %d features, config %d", len(X[0]), cfg.HD.Features)
	}
	enc, err := newEncoder(cfg)
	if err != nil {
		return nil, err
	}
	raw := hdc.EncodeBatch(enc, X, cfg.Workers)
	encoded := quant.QuantizeBatch(cfg.Quantizer, raw)
	model, err := hdc.Train(encoded, y, classes, cfg.HD.Dim)
	if err != nil {
		return nil, err
	}

	p := &Pipeline{cfg: cfg, encoder: enc, model: model}
	keep := cfg.HD.Dim
	if cfg.KeepDims > 0 && cfg.KeepDims < cfg.HD.Dim {
		keep = cfg.KeepDims
		// DiscriminativeMask rather than the paper-literal magnitude
		// ranking: see the mask's doc comment and experiments.Ablations.
		p.mask = prune.DiscriminativeMask(model, cfg.HD.Dim-cfg.KeepDims)
		prune.PruneModel(model, p.mask)
		if cfg.RetrainEpochs > 0 {
			prune.MaskedRetrain(model, p.mask, encoded, y, nil, nil, cfg.RetrainEpochs)
		}
	} else if cfg.RetrainEpochs > 0 {
		for e := 0; e < cfg.RetrainEpochs; e++ {
			if hdc.RetrainEpoch(model, encoded, y) == 0 {
				break
			}
		}
	}

	p.initFastPath()
	p.report = PrivacyReport{
		Quantizer: cfg.Quantizer.Name(),
		Dim:       cfg.HD.Dim,
		KeptDims:  keep,
	}
	if cfg.DP != nil {
		sens := quant.AnalyticL2Sensitivity(cfg.Quantizer, keep)
		if _, isIdentity := cfg.Quantizer.(quant.Identity); isIdentity {
			sens = quant.RawL2Sensitivity(keep, cfg.HD.Features)
		}
		sigma, err := dp.SigmaFactor(*cfg.DP)
		if err != nil {
			return nil, err
		}
		src := hrand.New(cfg.NoiseSeed)
		if p.mask != nil {
			err = dp.PrivatizeModelMasked(src, model, p.mask.Keep, sens, *cfg.DP)
		} else {
			err = dp.PrivatizeModel(src, model, sens, *cfg.DP)
		}
		if err != nil {
			return nil, err
		}
		p.report.Sensitivity = sens
		p.report.SigmaFactor = sigma
		p.report.NoiseStd = sens * sigma
		p.report.Epsilon = cfg.DP.Epsilon
		p.report.Delta = cfg.DP.Delta
		p.report.Private = true
	}
	return p, nil
}

// NewUntrained builds a pipeline with an empty model over the given label
// space — the starting point for streaming (online) training, where no
// batch of data exists up front.
func NewUntrained(cfg Config, classes int) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if classes <= 0 {
		return nil, fmt.Errorf("core: NewUntrained needs a positive class count, got %d", classes)
	}
	enc, err := newEncoder(cfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		encoder: enc,
		model:   hdc.NewModel(classes, cfg.HD.Dim),
		report: PrivacyReport{
			Quantizer: cfg.Quantizer.Name(),
			Dim:       cfg.HD.Dim,
			KeptDims:  cfg.HD.Dim,
		},
	}
	p.initFastPath()
	return p, nil
}

// OnlineTrain feeds a stream batch through similarity-weighted single-pass
// training (hdc.OnlineTrain): samples are encoded and quantized the way
// batch training would, masked if the model is pruned, and bundled with
// error-proportional weights. It returns the observed worst-case
// single-sample ℓ2 contribution to the model — the quantity an honest DP
// release must calibrate its noise against, since weighted bundling voids
// the fixed Eq. 12/14 bound (a sample's weight is data-dependent).
//
// OnlineTrain is copy-on-write: the batch trains a clone of the model and
// the clone replaces p.model only on success, so a mid-batch error (a bad
// label, say) leaves the pipeline exactly as it was, and any previously
// published pointer to the old model — a serving registry entry — is never
// mutated underneath concurrent readers. Callers serialize OnlineTrain
// against inference on this pipeline and re-freeze the norm caches
// afterwards (the public facade does both under its write lock).
// Pipelines that already carry DP noise refuse further training —
// "retraining the noisy model violates the concept of differential
// privacy" (§III-B).
func (p *Pipeline) OnlineTrain(X [][]float64, y []int) (float64, error) {
	if p.report.Private {
		return 0, fmt.Errorf("core: OnlineTrain on a privatized model would void its (ε,δ) guarantee")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("core: %d samples, %d labels", len(X), len(y))
	}
	raw := hdc.EncodeBatch(p.encoder, X, p.cfg.Workers)
	encoded := quant.QuantizeBatch(p.cfg.Quantizer, raw)
	if p.mask != nil {
		for _, h := range encoded {
			p.mask.Apply(h)
		}
	}
	model := p.model.Clone()
	contribution, err := hdc.OnlineTrain(model, encoded, y)
	if err != nil {
		return 0, err
	}
	p.model = model
	return contribution, nil
}

// Restore reassembles a trained pipeline from previously released parts: a
// validated config, the (possibly privatized) model, the pruning mask (nil
// when unpruned) and the privacy report recorded at training time. The
// encoder is rebuilt deterministically from cfg. Serialization lives in the
// public facade; this is its inverse constructor.
func Restore(cfg Config, model *hdc.Model, mask *prune.Mask, report PrivacyReport) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("core: Restore needs a model")
	}
	if model.Dim() != cfg.HD.Dim {
		return nil, fmt.Errorf("core: model dim %d, config %d", model.Dim(), cfg.HD.Dim)
	}
	if mask != nil && mask.Dim() != cfg.HD.Dim {
		return nil, fmt.Errorf("core: mask dim %d, config %d", mask.Dim(), cfg.HD.Dim)
	}
	enc, err := newEncoder(cfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, encoder: enc, model: model, mask: mask, report: report}
	p.initFastPath()
	return p, nil
}

// Report returns the pipeline's privacy summary.
func (p *Pipeline) Report() PrivacyReport { return p.report }

// Model exposes the (possibly privatized) class hypervectors — what a
// model release would publish.
func (p *Pipeline) Model() *hdc.Model { return p.model }

// Encoder exposes the underlying encoder (public in HD: base hypervectors
// are not secret, which is exactly why the paper needs DP).
func (p *Pipeline) Encoder() hdc.Encoder { return p.encoder }

// Mask returns the pruning mask, or nil when unpruned.
func (p *Pipeline) Mask() *prune.Mask { return p.mask }

// PrepareQuery encodes and quantizes one input the way the training data
// was processed, applying the pruning mask (pruned dimensions are never
// encoded at inference — §III-B1).
func (p *Pipeline) PrepareQuery(x []float64) []float64 {
	h := p.cfg.Quantizer.Quantize(p.encoder.Encode(x))
	if p.mask != nil {
		p.mask.Apply(h)
	}
	return h
}

// Predict classifies one input. The whole encode → quantize → mask → score
// chain runs on pooled scratch buffers, so the serving hot path does not
// allocate per query. With a paper quantizer the chain never leaves the
// integer domain: the bit-sliced engine derives the −2…+1 query's
// bit-planes straight from popcounts (no float hypervector, no separate
// quantization pass), the mask is one AND per word, and the integer
// scoring engine consumes the planes — every stage
// bit-identical to the float reference path.
func (p *Pipeline) Predict(x []float64) int {
	s := p.getScratch()
	defer p.scratch.Put(s)
	if p.scheme != encslice.SchemeNone {
		p.encoder.EncodePackedInto(x, p.scheme, s.planes)
		if p.keep != nil {
			s.planes.And(p.keep)
		}
		return vecmath.ArgMax(p.model.ScoresPlanesInto(s.planes, s.scores))
	}
	h := p.encoder.EncodeInto(x, s.h)
	quant.QuantizeInto(p.cfg.Quantizer, s.q, h)
	if p.mask != nil {
		p.mask.Apply(s.q)
	}
	return p.scoreVector(s.q, s)
}

// PredictBatch classifies every row of X concurrently (workers from the
// pipeline config; GOMAXPROCS when unset), returning labels in order. Rows
// are claimed off an atomic cursor and each worker runs the pooled Predict
// chain, so the batch allocates only the result slice. The model's caches
// are frozen first (Precompute) so the concurrent scoring is read-only.
func (p *Pipeline) PredictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	if len(X) == 0 {
		return out
	}
	if p.model.PackedScorer() == nil {
		// Never precomputed, or mutated since: freeze norms (and derive the
		// integer scorer) so concurrent Predict calls don't race on the
		// lazy caches.
		p.model.Precompute()
	}
	forEachRow(len(X), p.cfg.Workers, func(i int) {
		out[i] = p.Predict(X[i])
	})
	return out
}

// PredictVector classifies an already-encoded (and possibly obfuscated or
// hardware-quantized) hypervector on pooled scratch: a vector that fits
// the packed −2…+1 alphabet is scored on the integer engine exactly like
// a packed wire frame, anything else takes the float64 path. No pruning
// mask is applied — the caller's vector is scored as given, matching
// Model.Predict.
func (p *Pipeline) PredictVector(h []float64) int {
	s := p.getScratch()
	defer p.scratch.Put(s)
	return p.scoreVector(h, s)
}

// scoreVector scores an encoded vector on s: on the integer engine when
// it fits the packed alphabet, on the float path otherwise.
func (p *Pipeline) scoreVector(h []float64, s *predictScratch) int {
	if e := p.model.PackedScorer(); e != nil {
		if pk, ok := intscore.PackInto(h, s.packed); ok {
			return vecmath.ArgMax(e.ScoresPackedInto(pk, s.scores))
		}
	}
	return vecmath.ArgMax(p.model.ScoresInto(h, s.scores))
}

// Evaluate returns accuracy over the dataset's test split.
func (p *Pipeline) Evaluate(d *dataset.Dataset) float64 {
	return p.EvaluateData(d.TestX, d.TestY)
}

// EvaluateData returns accuracy over raw samples and labels.
func (p *Pipeline) EvaluateData(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, label := range p.PredictBatch(X) {
		if label == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
