package privehd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"

	"privehd/internal/core"
	"privehd/internal/dp"
	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/prune"
	"privehd/internal/quant"
)

// ErrNotTrained is returned by inference and serialization methods called
// before Train (or Load) has produced a model.
var ErrNotTrained = errors.New("privehd: pipeline is not trained")

// Report summarizes the privacy mechanics of a trained pipeline: geometry
// after pruning, the ℓ2 sensitivity used for calibration, and the Gaussian
// mechanism actually applied.
type Report = core.PrivacyReport

// Pipeline is the Prive-HD pipeline: encode → quantize (Eq. 13) → bundle →
// prune and retrain (§III-B1) → calibrated Gaussian noise (Eq. 8). Build
// one with New, feed it with Train (or restore one with Load), then call
// Predict/PredictBatch locally, Serve it to the network, or derive an
// Edge for obfuscated offloading.
//
// A trained Pipeline is safe for concurrent inference from many
// goroutines.
type Pipeline struct {
	mu      sync.RWMutex
	cfg     config
	classes int
	core    *core.Pipeline
	// maxOnlineContribution is the largest single-sample ℓ2 contribution
	// observed across TrainOnline calls — the honest DP sensitivity of an
	// online-trained model.
	maxOnlineContribution float64
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

// coreConfig assembles the internal pipeline configuration. features must
// already be resolved.
func (c config) coreConfig() core.Config {
	cc := core.Config{
		HD:            hdc.Config{Dim: c.dim, Features: c.features, Levels: c.levels, Seed: c.seed},
		Encoding:      core.Encoding(c.encoding),
		Quantizer:     c.quantizer,
		KeepDims:      c.keepDims,
		RetrainEpochs: c.retrainEpochs,
		NoiseSeed:     c.noiseSeed,
		Workers:       c.workers,
	}
	if cc.NoiseSeed == 0 {
		cc.NoiseSeed = c.seed + 1
	}
	if c.epsilon > 0 {
		cc.DP = &dp.Params{Epsilon: c.epsilon, Delta: c.delta}
	}
	return cc
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
	classes := cfg.classes
	if classes == 0 {
		for _, l := range y {
			if l+1 > classes {
				classes = l + 1
			}
		}
	}
	cp, err := core.TrainData(cfg.coreConfig(), X, y, classes)
	if err != nil {
		return err
	}
	// Freeze the norm caches so concurrent Predict calls are read-only.
	cp.Model().Precompute()
	p.cfg = cfg
	p.classes = classes
	p.core = cp
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
// privatizing an online-trained model is the caller's explicit step.
func (p *Pipeline) TrainOnline(X [][]float64, y []int) (float64, error) {
	if len(X) == 0 {
		return 0, errors.New("privehd: TrainOnline needs at least one sample")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("privehd: TrainOnline got %d samples but %d labels", len(X), len(y))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.epsilon > 0 {
		return 0, errors.New("privehd: TrainOnline does not support WithNoise (weighted bundling voids the pre-calibrated sensitivity; calibrate against the returned contribution instead)")
	}
	// Validate the whole batch before any state changes: a rejected batch
	// must leave the pipeline exactly as it was — in particular a failed
	// first call must not flip it to "trained" with an empty model, and a
	// bad sample mid-batch must not leave half the batch bundled with its
	// ℓ2 contribution unreported (core.OnlineTrain is additionally
	// copy-on-write for errors it can only detect while training).
	features := p.cfg.features
	if p.core == nil && features == 0 {
		features = len(X[0])
	}
	for i, x := range X {
		if len(x) != features {
			return 0, fmt.Errorf("privehd: TrainOnline sample %d has %d features, model wants %d",
				i, len(x), features)
		}
	}
	if p.core == nil {
		cfg := p.cfg
		cfg.features = features
		classes := cfg.classes
		if classes == 0 {
			for _, l := range y {
				if l+1 > classes {
					classes = l + 1
				}
			}
		}
		cp, err := core.NewUntrained(cfg.coreConfig(), classes)
		if err != nil {
			return 0, err
		}
		contribution, err := cp.OnlineTrain(X, y)
		if err != nil {
			return 0, err
		}
		// Only a fully-applied first batch installs the model.
		p.cfg = cfg
		p.classes = classes
		p.core = cp
		p.maxOnlineContribution = contribution
	} else {
		contribution, err := p.core.OnlineTrain(X, y)
		if err != nil {
			return 0, err
		}
		if contribution > p.maxOnlineContribution {
			p.maxOnlineContribution = contribution
		}
	}
	// Re-freeze the norm caches so concurrent Predict calls after the
	// write lock drops are read-only again.
	p.core.Model().Precompute()
	return p.maxOnlineContribution, nil
}

// trained returns the inner pipeline, or ErrNotTrained.
func (p *Pipeline) trained() (*core.Pipeline, error) {
	if p.core == nil {
		return nil, ErrNotTrained
	}
	return p.core, nil
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

// Classes returns the label-space size, or 0 before training.
func (p *Pipeline) Classes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.classes
}

// Trained reports whether the pipeline holds a model.
func (p *Pipeline) Trained() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.core != nil
}

// Predict classifies one input, encoding and quantizing it the way the
// training data was processed.
func (p *Pipeline) Predict(x []float64) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cp, err := p.trained()
	if err != nil {
		return 0, err
	}
	if len(x) != p.cfg.features {
		return 0, fmt.Errorf("privehd: Predict got %d features, model wants %d", len(x), p.cfg.features)
	}
	return cp.Predict(x), nil
}

// PredictBatch classifies many inputs, spreading encoding and inference
// over goroutines (WithWorkers bounds the parallelism; the default uses
// every CPU). Every worker runs the fused bit-sliced encode→quantize→score
// chain on pooled scratch, so the batch allocates only the result slice.
func (p *Pipeline) PredictBatch(X [][]float64) ([]int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cp, err := p.trained()
	if err != nil {
		return nil, err
	}
	for i, x := range X {
		if len(x) != p.cfg.features {
			return nil, fmt.Errorf("privehd: PredictBatch sample %d has %d features, model wants %d",
				i, len(x), p.cfg.features)
		}
	}
	return cp.PredictBatch(X), nil
}

// PredictVector classifies an already-encoded (and possibly obfuscated or
// hardware-quantized) hypervector against the trained model — what the
// serving side of the §III-C split does with each offloaded query. A vector
// that fits the packed −2…+1 alphabet (any of the paper's quantization
// schemes) is scored on the integer-domain engine, exactly like a packed
// frame arriving over the wire; anything else takes the float64 path.
func (p *Pipeline) PredictVector(h []float64) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cp, err := p.trained()
	if err != nil {
		return 0, err
	}
	if len(h) != p.cfg.dim {
		return 0, fmt.Errorf("privehd: PredictVector got dim %d, model dim %d", len(h), p.cfg.dim)
	}
	return cp.PredictVector(h), nil
}

// Evaluate returns accuracy over a labelled sample set.
func (p *Pipeline) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) {
		return 0, fmt.Errorf("privehd: Evaluate got %d samples but %d labels", len(X), len(y))
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	cp, err := p.trained()
	if err != nil {
		return 0, err
	}
	return cp.EvaluateData(X, y), nil
}

// ClassVectors returns copies of the class hypervectors ~C_l of Eq. 3 —
// exactly what a model release publishes (and what the differential-
// privacy noise protects).
func (p *Pipeline) ClassVectors() ([][]float64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cp, err := p.trained()
	if err != nil {
		return nil, err
	}
	m := cp.Model()
	out := make([][]float64, m.NumClasses())
	for l := range out {
		out[l] = append([]float64(nil), m.Class(l)...)
	}
	return out, nil
}

// Report returns the privacy summary recorded at training time; the zero
// Report before training.
func (p *Pipeline) Report() Report {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.core == nil {
		return Report{}
	}
	return p.core.Report()
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
	kept := cfg.dim
	if cfg.keepDims > 0 && cfg.keepDims < kept {
		kept = cfg.keepDims
	}
	var sens float64
	if _, isIdentity := cfg.quantizer.(quant.Identity); isIdentity {
		sens = quant.RawL2Sensitivity(kept, cfg.features)
	} else {
		sens = quant.AnalyticL2Sensitivity(cfg.quantizer, kept)
	}
	sigma, err := dp.SigmaFactor(dp.Params{Epsilon: cfg.epsilon, Delta: cfg.delta})
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{
		Quantizer:      cfg.quantizer.Name(),
		Dim:            cfg.dim,
		KeptDims:       kept,
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
	cp, err := p.trained()
	if err != nil {
		return err
	}
	var model bytes.Buffer
	if err := cp.Model().Save(&model); err != nil {
		return err
	}
	wire := pipelineWire{
		SaveVersion:   saveVersion,
		Dim:           p.cfg.dim,
		Levels:        p.cfg.levels,
		Features:      p.cfg.features,
		Classes:       p.classes,
		Encoding:      int(p.cfg.encoding),
		Quantizer:     p.cfg.quantizer.Name(),
		KeepDims:      p.cfg.keepDims,
		RetrainEpochs: p.cfg.retrainEpochs,
		Epsilon:       p.cfg.epsilon,
		Delta:         p.cfg.delta,
		Seed:          p.cfg.seed,
		Report:        cp.Report(),
		Model:         model.Bytes(),
	}
	if mask := cp.Mask(); mask != nil {
		wire.Keep = append([]bool(nil), mask.Keep...)
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
	cp, err := core.Restore(cfg.coreConfig(), model, mask, wire.Report)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptModel, err)
	}
	cp.Model().Precompute()
	return &Pipeline{cfg: cfg, classes: wire.Classes, core: cp}, nil
}
