package privehd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"privehd/internal/dp"
	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/par"
	"privehd/internal/prune"
	"privehd/internal/quant"
	"privehd/internal/vecmath"
)

// ErrNotTrained is returned by inference and serialization methods called
// before Train (or Load) has produced a model.
var ErrNotTrained = errors.New("privehd: pipeline is not trained")

// Report summarizes the privacy mechanics of a trained pipeline: geometry
// after pruning, the ℓ2 sensitivity used for calibration, and the Gaussian
// mechanism actually applied.
type Report struct {
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

// Pipeline is the Prive-HD pipeline: encode → quantize (Eq. 13) → bundle →
// prune and retrain (§III-B1) → calibrated Gaussian noise (Eq. 8). Build
// one with New, feed it with Train (or restore one with Load), then call
// Predict/PredictBatch locally, Serve it to the network, or derive an
// Edge for obfuscated offloading.
//
// A trained Pipeline is safe for concurrent inference from many
// goroutines.
type Pipeline struct {
	mu  sync.RWMutex
	cfg config

	// The trained state, installed whole by Train, TrainOnline and Load;
	// model is nil before.
	encoder hdc.Encoder
	model   *hdc.Model  // the (possibly privatized) class hypervectors
	mask    *prune.Mask // nil when unpruned
	keep    []uint64    // mask.Words(), the query planes' AND mask
	report  Report

	// scheme enables the fused bit-sliced encode→quantize fast path: when
	// the configured quantizer maps onto a packed scheme, Predict derives
	// the −2…+1 query's bit-planes straight from integer popcounts — no
	// float hypervector, no separate quantization pass. SchemeNone
	// (Identity) takes the float path.
	scheme encslice.Scheme

	// scratch recycles per-query encode/quantize/score buffers across
	// Predict calls — the serving hot path answers each query with zero
	// heap allocations. Buffers are per-goroutine via sync.Pool, so
	// concurrent Predict calls stay safe. Each installed model gets a
	// fresh pool, sized to its class count.
	scratch *sync.Pool

	// maxOnlineContribution is the largest single-sample ℓ2 contribution
	// observed across TrainOnline calls — the honest DP sensitivity of an
	// online-trained model.
	maxOnlineContribution float64
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
		h:      make([]float64, p.cfg.dim),
		q:      make([]float64, p.cfg.dim),
		planes: intscore.NewPlanes(p.cfg.dim),
		packed: make([]int8, p.cfg.dim),
		scores: make([]float64, p.model.NumClasses()),
	}
}

// packedScheme maps a quant scheme onto the engine's fused quantization
// rule; SchemeNone means the quantizer has no packed form (Identity) and
// inference must go through the float path.
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

// encodeQuantized returns the quantized encodings training bundles, one
// row per sample, spread over cfg.workers goroutines. A paper scheme takes
// them from the bit-sliced engine's count → cut point → planes step,
// widened to the exact −2…+1 symbols, so no float encoding is formed; a
// quantizer without a packed form (Identity) encodes in float and
// quantizes.
func (cfg config) encodeQuantized(enc hdc.Encoder, X [][]float64) [][]float64 {
	if scheme := packedScheme(cfg.quantizer); scheme != encslice.SchemeNone {
		return hdc.EncodeQuantizedBatch(enc, X, scheme, cfg.workers)
	}
	return quant.QuantizeBatch(cfg.quantizer, hdc.EncodeBatch(enc, X, cfg.workers))
}

// install publishes a trained state under the write lock (or before the
// pipeline is shared): it freezes the model's caches so concurrent
// Predict calls are read-only, and resolves the fused scheme and the
// mask's plane words once so Predict only pays a compare per query.
func (p *Pipeline) install(cfg config, enc hdc.Encoder, model *hdc.Model, mask *prune.Mask, report Report) {
	model.Precompute()
	p.cfg, p.encoder, p.model, p.mask, p.report = cfg, enc, model, mask, report
	p.keep = nil
	if mask != nil {
		p.keep = mask.Words()
	}
	p.scheme = packedScheme(cfg.quantizer)
	p.scratch = new(sync.Pool)
}

// New builds an untrained pipeline from functional options. With no
// options it uses the paper defaults: D=10,000 level encoding over 100
// levels, biased-ternary encoding quantization, two retraining epochs, no
// pruning, no noise.
func New(opts ...Option) (*Pipeline, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate("New", cfg.edgeOnly); err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg}, nil
}

// Train runs the full §III-B pipeline on the given samples and labels,
// replacing any previously trained model. The input width fixes the
// pipeline's feature dimensionality unless WithFeatures pinned it; the
// label space is max(y)+1 unless WithClasses pinned it.
func (p *Pipeline) Train(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("privehd: Train needs at least one sample")
	}
	if len(X) != len(y) {
		return fmt.Errorf("privehd: Train got %d samples but %d labels", len(X), len(y))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cfg := p.cfg
	if cfg.features == 0 {
		cfg.features = len(X[0])
	}
	if err := checkRows("Train", X, cfg.features); err != nil {
		return err
	}
	enc, err := cfg.newEncoder()
	if err != nil {
		return err
	}
	encoded := cfg.encodeQuantized(enc, X)
	model, err := hdc.Train(encoded, y, cfg.labelSpace(y), cfg.dim)
	if err != nil {
		return err
	}
	var mask *prune.Mask
	if kept := cfg.kept(); kept < cfg.dim {
		// DiscriminativeMask rather than the paper-literal magnitude
		// ranking: see the mask's doc comment and experiments.Ablations.
		mask = prune.DiscriminativeMask(model, cfg.dim-kept)
		prune.PruneModel(model, mask)
		if cfg.retrainEpochs > 0 {
			prune.MaskedRetrain(model, mask, encoded, y, nil, nil, cfg.retrainEpochs)
		}
	} else {
		for e := 0; e < cfg.retrainEpochs; e++ {
			if hdc.RetrainEpoch(model, encoded, y) == 0 {
				break
			}
		}
	}

	// Noise goes on once, after retraining: the noisy model is never
	// retrained (§III-B).
	report := Report{Quantizer: cfg.quantizer.Name(), Dim: cfg.dim, KeptDims: cfg.kept()}
	if cfg.epsilon > 0 {
		params := dp.Params{Epsilon: cfg.epsilon, Delta: cfg.delta}
		sens := cfg.sensitivity()
		sigma, err := dp.SigmaFactor(params)
		if err != nil {
			return err
		}
		seed := cfg.noiseSeed
		if seed == 0 {
			seed = cfg.seed + 1
		}
		src := hrand.New(seed)
		if mask != nil {
			err = dp.PrivatizeModelMasked(src, model, mask.Keep, sens, params)
		} else {
			err = dp.PrivatizeModel(src, model, sens, params)
		}
		if err != nil {
			return err
		}
		report.Sensitivity = sens
		report.SigmaFactor = sigma
		report.NoiseStd = sens * sigma
		report.Epsilon = cfg.epsilon
		report.Delta = cfg.delta
		report.Private = true
	}
	p.install(cfg, enc, model, mask, report)
	return nil
}

// TrainOnline feeds a batch of a streaming workload through
// similarity-weighted single-pass training (the "OnlineHD" refinement of
// Eq. 3/5): each sample is bundled with a weight proportional to how badly
// the current model handles it, so one pass typically matches one-shot
// training plus one or two Eq. 5 retraining epochs — for training sets
// that stream and cannot be revisited. The first call on an untrained
// pipeline creates the model (features from the first sample unless
// WithFeatures pinned them; label space from WithClasses, which streaming
// callers should set — otherwise max(label)+1 of the first batch is used);
// later calls keep refining it, and inference works between calls. Each
// batch trains a copy and publishes it wholesale, so a model already
// handed to a serving Registry is never mutated underneath its readers —
// the streaming update idiom is TrainOnline-then-Swap, just like
// Train-then-Swap.
//
// It returns the observed worst-case single-sample ℓ2 contribution across
// every TrainOnline call so far — the sensitivity an honest (ε,δ) release
// of this model must calibrate its Gaussian noise against, since weighted
// bundling voids the fixed Eq. 12/14 per-sample bound. WithNoise is
// rejected here for exactly that reason: noise calibrated before the data
// streams by would promise a guarantee the weights can exceed, so
// privatizing an online-trained model is the caller's explicit step. A
// model that already carries noise is refused too: "retraining the noisy
// model violates the concept of differential privacy" (§III-B).
func (p *Pipeline) TrainOnline(X [][]float64, y []int) (float64, error) {
	if len(X) == 0 {
		return 0, errors.New("privehd: TrainOnline needs at least one sample")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("privehd: TrainOnline got %d samples but %d labels", len(X), len(y))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.epsilon > 0 || p.report.Private {
		return 0, errors.New("privehd: TrainOnline does not support WithNoise (weighted bundling voids the pre-calibrated sensitivity; calibrate against the returned contribution instead)")
	}
	// Validate the whole batch before any state changes: a rejected batch
	// must leave the pipeline exactly as it was — in particular a failed
	// first call must not flip it to "trained" with an empty model, and a
	// bad sample mid-batch must not leave half the batch bundled with its
	// ℓ2 contribution unreported. Training is additionally copy-on-write
	// for errors hdc.OnlineTrain can only detect while training (a bad
	// label, say).
	cfg, enc, model, report := p.cfg, p.encoder, p.model, p.report
	if model == nil && cfg.features == 0 {
		cfg.features = len(X[0])
	}
	if err := checkRows("TrainOnline", X, cfg.features); err != nil {
		return 0, err
	}
	if model == nil {
		classes := cfg.labelSpace(y)
		if classes <= 0 {
			return 0, fmt.Errorf("privehd: TrainOnline needs a positive class count, got %d", classes)
		}
		var err error
		if enc, err = cfg.newEncoder(); err != nil {
			return 0, err
		}
		model = hdc.NewModel(classes, cfg.dim)
		report = Report{Quantizer: cfg.quantizer.Name(), Dim: cfg.dim, KeptDims: cfg.dim}
	} else {
		model = model.Clone()
	}
	encoded := cfg.encodeQuantized(enc, X)
	if p.mask != nil {
		for _, h := range encoded {
			p.mask.Apply(h)
		}
	}
	contribution, err := hdc.OnlineTrain(model, encoded, y)
	if err != nil {
		return 0, err
	}
	p.install(cfg, enc, model, p.mask, report)
	if contribution > p.maxOnlineContribution {
		p.maxOnlineContribution = contribution
	}
	return p.maxOnlineContribution, nil
}

// Dim returns the hypervector dimensionality D_hv.
func (p *Pipeline) Dim() int {
	// Train replaces the whole cfg struct under the write lock, so even
	// fields it never alters must be read under the read lock.
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cfg.dim
}

// Encoding returns the paper encoding the pipeline uses. Edges querying
// this pipeline's model must use the same encoding (Pipeline.Edge does so
// automatically).
func (p *Pipeline) Encoding() Encoding {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cfg.encoding
}

// Features returns the input dimensionality D_iv, or 0 before it is known.
func (p *Pipeline) Features() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cfg.features
}

// Classes returns the label-space size — the model's class count — or 0
// before training.
func (p *Pipeline) Classes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return 0
	}
	return p.model.NumClasses()
}

// Trained reports whether the pipeline holds a model.
func (p *Pipeline) Trained() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.model != nil
}

// Predict classifies one input, encoding and quantizing it the way the
// training data was processed.
func (p *Pipeline) Predict(x []float64) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return 0, ErrNotTrained
	}
	if len(x) != p.cfg.features {
		return 0, fmt.Errorf("privehd: Predict got %d features, model wants %d", len(x), p.cfg.features)
	}
	return p.predict(x), nil
}

// predict runs the whole encode → quantize → mask → score chain on pooled
// scratch buffers, so the serving hot path does not allocate per query.
// With a paper quantizer the chain never leaves the integer domain: the
// bit-sliced engine derives the −2…+1 query's bit-planes straight from
// popcounts (no float hypervector, no separate quantization pass), the
// mask is one AND per word, and the integer scoring engine consumes the
// planes — every stage bit-identical to the float reference path. The
// caller holds the read lock on a trained pipeline.
func (p *Pipeline) predict(x []float64) int {
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
	quant.QuantizeInto(p.cfg.quantizer, s.q, h)
	if p.mask != nil {
		p.mask.Apply(s.q)
	}
	return p.scoreVector(s.q, s)
}

// PredictBatch classifies many inputs, spreading encoding and inference
// over goroutines (WithWorkers bounds the parallelism; the default uses
// every CPU). Every worker runs the fused bit-sliced encode→quantize→score
// chain on pooled scratch, so the batch allocates only the result slice.
func (p *Pipeline) PredictBatch(X [][]float64) ([]int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return nil, ErrNotTrained
	}
	if err := checkRows("PredictBatch", X, p.cfg.features); err != nil {
		return nil, err
	}
	return p.predictBatch(X), nil
}

// checkRows returns an error naming the first sample of X that does not
// have features features; op names the call.
func checkRows(op string, X [][]float64, features int) error {
	for i, x := range X {
		if len(x) != features {
			return fmt.Errorf("privehd: %s sample %d has %d features, want %d", op, i, len(x), features)
		}
	}
	return nil
}

// predictBatch runs predict over every row, claimed off an atomic cursor,
// returning labels in order. The caller holds the read lock on a trained
// pipeline, whose model install froze, so the concurrent scoring is
// read-only.
func (p *Pipeline) predictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	forEachRow(len(X), p.cfg.workers, func(i int) {
		out[i] = p.predict(X[i])
	})
	return out
}

// forEachRow runs fn over n rows on workers goroutines (<=0 selects
// GOMAXPROCS).
func forEachRow(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.ForEach(n, workers, fn)
}

// PredictVector classifies an already-encoded (and possibly obfuscated or
// hardware-quantized) hypervector against the trained model — what the
// serving side of the §III-C split does with each offloaded query. A vector
// that fits the packed −2…+1 alphabet (any of the paper's quantization
// schemes) is scored on the integer-domain engine, exactly like a packed
// frame arriving over the wire; anything else takes the float64 path. No
// pruning mask is applied: the vector is scored as given.
func (p *Pipeline) PredictVector(h []float64) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return 0, ErrNotTrained
	}
	if len(h) != p.cfg.dim {
		return 0, fmt.Errorf("privehd: PredictVector got dim %d, model dim %d", len(h), p.cfg.dim)
	}
	s := p.getScratch()
	defer p.scratch.Put(s)
	return p.scoreVector(h, s), nil
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

// Evaluate returns accuracy over a labelled sample set.
func (p *Pipeline) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) {
		return 0, fmt.Errorf("privehd: Evaluate got %d samples but %d labels", len(X), len(y))
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return 0, ErrNotTrained
	}
	if len(X) == 0 {
		return 0, nil
	}
	if err := checkRows("Evaluate", X, p.cfg.features); err != nil {
		return 0, err
	}
	correct := 0
	for i, label := range p.predictBatch(X) {
		if label == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X)), nil
}

// ClassVectors returns copies of the class hypervectors ~C_l of Eq. 3 —
// exactly what a model release publishes (and what the differential-
// privacy noise protects).
func (p *Pipeline) ClassVectors() ([][]float64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return nil, ErrNotTrained
	}
	out := make([][]float64, p.model.NumClasses())
	for l := range out {
		out[l] = append([]float64(nil), p.model.Class(l)...)
	}
	return out, nil
}

// Report returns the privacy summary recorded at training time; the zero
// Report before training.
func (p *Pipeline) Report() Report {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.report
}

// Calibration is the privacy arithmetic of a configuration — everything
// Eq. 12/14 and Eq. 8 determine before any data is seen.
type Calibration struct {
	// Quantizer names the encoding quantization scheme.
	Quantizer string
	// Dim, KeptDims and Features describe the geometry.
	Dim      int
	KeptDims int
	Features int
	// Sensitivity is the ℓ2 bound ∆f used for calibration (Eq. 14, or
	// Eq. 12 when unquantized), over the kept dimensions.
	Sensitivity float64
	// RawSensitivity is the Eq. 12 bound an unquantized encoding would
	// need at full dimension — the baseline the paper's quantization
	// improves on.
	RawSensitivity float64
	// SigmaFactor and NoiseStd describe the Gaussian mechanism: per-
	// dimension noise std is Sensitivity×SigmaFactor.
	SigmaFactor float64
	NoiseStd    float64
	// Epsilon and Delta echo the budget.
	Epsilon float64
	Delta   float64
}

// Calibration computes the noise calibration the configured privacy budget
// implies, without training. It requires WithFeatures (or a trained
// pipeline) and a positive WithNoise epsilon.
func (p *Pipeline) Calibration() (Calibration, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cfg := p.cfg
	if cfg.features == 0 {
		return Calibration{}, errors.New("privehd: Calibration needs WithFeatures (or a trained pipeline)")
	}
	if cfg.epsilon <= 0 {
		return Calibration{}, errors.New("privehd: Calibration needs a positive WithNoise epsilon")
	}
	sens := cfg.sensitivity()
	sigma, err := dp.SigmaFactor(dp.Params{Epsilon: cfg.epsilon, Delta: cfg.delta})
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{
		Quantizer:      cfg.quantizer.Name(),
		Dim:            cfg.dim,
		KeptDims:       cfg.kept(),
		Features:       cfg.features,
		Sensitivity:    sens,
		RawSensitivity: quant.RawL2Sensitivity(cfg.dim, cfg.features),
		SigmaFactor:    sigma,
		NoiseStd:       sens * sigma,
		Epsilon:        cfg.epsilon,
		Delta:          cfg.delta,
	}, nil
}

// saveVersion versions the Save/Load format independently of the network
// protocol.
const saveVersion = 1

// ErrCorruptModel reports a saved-pipeline blob that failed to decode or
// validate — truncated, bit-flipped, or hostile bytes. The durable store
// replays blobs from disk at boot and the admin API accepts uploads from
// the network, so Load treats every malformed input as this one typed
// condition (test with errors.Is) and never panics on garbage. A
// version-mismatch from a different build is reported separately: the blob
// is well-formed, just not readable here.
var ErrCorruptModel = hdc.ErrCorrupt

// maxLoadCells caps decoded pipeline geometry before any geometry-sized
// allocation: gob length fields are attacker-controlled, and rebuilding
// the encoder allocates levels×dim and features×dim cells. The cap sits
// far above the paper's largest deployment (D=10,000, 100 levels) while
// bounding hostile blobs to hundreds of megabytes. Levels are bounded by
// the encoding engine's own limit.
const maxLoadCells = 1 << 28

// validateWire bounds a decoded pipelineWire's geometry before anything is
// allocated from it.
func (w *pipelineWire) validate() error {
	switch {
	case w.Dim <= 0 || w.Dim > hdc.MaxDim:
		return fmt.Errorf("dim %d out of range (0, %d]", w.Dim, hdc.MaxDim)
	case w.Levels < 2 || w.Levels > encslice.MaxLevels:
		return fmt.Errorf("levels %d out of range [2, %d]", w.Levels, encslice.MaxLevels)
	case w.Features < 0 || w.Features > maxLoadCells/w.Dim:
		return fmt.Errorf("features %d out of range for dim %d", w.Features, w.Dim)
	case w.Classes < 0 || w.Classes > hdc.MaxClasses:
		return fmt.Errorf("classes %d out of range [0, %d]", w.Classes, hdc.MaxClasses)
	case w.Levels > maxLoadCells/w.Dim:
		return fmt.Errorf("level memory %d×%d exceeds %d cells", w.Levels, w.Dim, maxLoadCells)
	case w.KeepDims < 0 || w.KeepDims > w.Dim:
		return fmt.Errorf("pruning keep %d out of range [0, %d]", w.KeepDims, w.Dim)
	case w.RetrainEpochs < 0:
		return fmt.Errorf("negative retrain epochs %d", w.RetrainEpochs)
	}
	return nil
}

// pipelineWire is the gob serialization of a trained pipeline: the
// configuration needed to rebuild the deterministic encoder, plus the
// released model, pruning mask and privacy report.
type pipelineWire struct {
	SaveVersion   int
	Dim           int
	Levels        int
	Features      int
	Classes       int
	Encoding      int
	Quantizer     string
	KeepDims      int
	RetrainEpochs int
	Epsilon       float64
	Delta         float64
	Seed          uint64
	Keep          []bool // pruning mask; nil when unpruned
	Report        Report
	Model         []byte // hdc model gob
}

// Save writes the trained pipeline — configuration, model, mask and
// privacy report — to w. The format is versioned; Load refuses versions it
// does not know.
func (p *Pipeline) Save(w io.Writer) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return ErrNotTrained
	}
	var model bytes.Buffer
	if err := p.model.Save(&model); err != nil {
		return err
	}
	wire := pipelineWire{
		SaveVersion:   saveVersion,
		Dim:           p.cfg.dim,
		Levels:        p.cfg.levels,
		Features:      p.cfg.features,
		Classes:       p.model.NumClasses(),
		Encoding:      int(p.cfg.encoding),
		Quantizer:     p.cfg.quantizer.Name(),
		KeepDims:      p.cfg.keepDims,
		RetrainEpochs: p.cfg.retrainEpochs,
		Epsilon:       p.cfg.epsilon,
		Delta:         p.cfg.delta,
		Seed:          p.cfg.seed,
		Report:        p.report,
		Model:         model.Bytes(),
	}
	if p.mask != nil {
		wire.Keep = append([]bool(nil), p.mask.Keep...)
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("privehd: saving pipeline: %w", err)
	}
	return nil
}

// Load restores a pipeline previously written with Save. The encoder is
// rebuilt deterministically from the saved seed, so a loaded pipeline
// predicts identically to the one that was saved. Malformed input —
// truncated, bit-flipped, hostile — fails with an error wrapping
// ErrCorruptModel, with every allocation bounded before it happens; only a
// well-formed blob from an incompatible save-format version fails without
// it.
func Load(r io.Reader) (*Pipeline, error) {
	var wire pipelineWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("privehd: loading pipeline: %w: %v", ErrCorruptModel, err)
	}
	if wire.SaveVersion != saveVersion {
		return nil, fmt.Errorf("privehd: unsupported save format version %d (this build reads %d)",
			wire.SaveVersion, saveVersion)
	}
	if err := wire.validate(); err != nil {
		return nil, fmt.Errorf("privehd: loading pipeline: %w: %v", ErrCorruptModel, err)
	}
	q, err := quant.Parse(wire.Quantizer)
	if err != nil {
		return nil, fmt.Errorf("privehd: loading pipeline: %w: %v", ErrCorruptModel, err)
	}
	cfg := defaultConfig()
	cfg.dim = wire.Dim
	cfg.levels = wire.Levels
	cfg.features = wire.Features
	cfg.classes = wire.Classes
	cfg.encoding = Encoding(wire.Encoding)
	cfg.quantizer = q
	cfg.keepDims = wire.KeepDims
	cfg.retrainEpochs = wire.RetrainEpochs
	cfg.epsilon = wire.Epsilon
	cfg.delta = wire.Delta
	cfg.seed = wire.Seed
	if err := cfg.validate("Load", nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptModel, err)
	}
	model, err := hdc.LoadModel(bytes.NewReader(wire.Model))
	if err != nil {
		return nil, fmt.Errorf("privehd: loading pipeline: %w", err)
	}
	if model.Dim() != wire.Dim || model.NumClasses() != wire.Classes {
		return nil, fmt.Errorf("privehd: loading pipeline: %w: model is %d classes × %d dims, pipeline %d × %d",
			ErrCorruptModel, model.NumClasses(), model.Dim(), wire.Classes, wire.Dim)
	}
	var mask *prune.Mask
	if wire.Keep != nil {
		if len(wire.Keep) != wire.Dim {
			return nil, fmt.Errorf("privehd: loading pipeline: %w: mask has %d dims, model %d", ErrCorruptModel, len(wire.Keep), wire.Dim)
		}
		mask = prune.NewMask(wire.Dim)
		for j, keep := range wire.Keep {
			if !keep {
				mask.Drop(j)
			}
		}
	}
	enc, err := cfg.newEncoder()
	if err != nil {
		return nil, fmt.Errorf("privehd: loading pipeline: %w: %v", ErrCorruptModel, err)
	}
	p := &Pipeline{}
	p.install(cfg, enc, model, mask, wire.Report)
	return p, nil
}
