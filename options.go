package privehd

import (
	"fmt"

	"privehd/internal/dp"
	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/quant"
)

// Encoding selects which paper encoding (Eq. 2) a pipeline or edge uses.
type Encoding int

const (
	// Level is Eq. 2b (level ⊙ base XNOR), the hardware-friendly default.
	Level Encoding = iota
	// Scalar is Eq. 2a (scalar × base), the form the reconstruction-attack
	// analysis is written against.
	Scalar
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Level:
		return "level"
	case Scalar:
		return "scalar"
	}
	return fmt.Sprintf("Encoding(%d)", int(e))
}

// config collects every knob an Option can set. One struct backs both
// pipelines and edges; options that only make sense for one side record
// their name so the other side's constructor can reject them.
type config struct {
	dim      int
	levels   int
	features int
	classes  int
	encoding Encoding

	quantizer     quant.Quantizer
	keepDims      int
	retrainEpochs int
	epsilon       float64
	delta         float64

	seed      uint64
	noiseSeed uint64 // 0 = derive as seed+1
	workers   int

	// Edge-side query obfuscation (§III-C).
	maskDims   int
	rawQueries bool

	// Option-misuse bookkeeping.
	edgeOnly []string // edge options seen (rejected by New)
	pipeOnly []string // pipeline options seen (rejected by NewEdge)
	errs     []error  // option-level failures (bad quantizer name, ...)
}

// defaultConfig is the paper's default geometry: D=10,000 hypervectors over
// 100 feature levels, level encoding, biased-ternary encoding quantization
// (the paper's best accuracy/noise trade-off) and two retraining epochs.
func defaultConfig() config {
	return config{
		dim:           10000,
		levels:        100,
		encoding:      Level,
		quantizer:     quant.BiasedTernary{},
		retrainEpochs: 2,
		delta:         1e-5,
		seed:          1,
	}
}

// validate checks everything that does not depend on training data,
// including the encoding engine's level and feature limits (errors
// wrapping hdc.ErrGeometry). caller names the constructor for error
// messages; reject lists misused options.
func (c *config) validate(caller string, reject []string) error {
	if len(c.errs) > 0 {
		return fmt.Errorf("privehd: %s: %w", caller, c.errs[0])
	}
	if len(reject) > 0 {
		return fmt.Errorf("privehd: %s does not accept %s (it configures the other side of the pipeline)", caller, reject[0])
	}
	switch {
	case c.dim <= 0:
		return fmt.Errorf("privehd: %s: WithDim must be positive, got %d", caller, c.dim)
	case c.levels < 2:
		return fmt.Errorf("privehd: %s: WithLevels must be at least 2, got %d", caller, c.levels)
	case c.levels > encslice.MaxLevels:
		return fmt.Errorf("privehd: %s: %w: WithLevels %d exceeds the limit %d", caller, hdc.ErrGeometry, c.levels, encslice.MaxLevels)
	case c.features < 0:
		return fmt.Errorf("privehd: %s: WithFeatures must be non-negative, got %d", caller, c.features)
	case c.features >= encslice.MaxFeatures:
		return fmt.Errorf("privehd: %s: %w: WithFeatures %d reaches the limit %d", caller, hdc.ErrGeometry, c.features, encslice.MaxFeatures)
	case c.classes < 0:
		return fmt.Errorf("privehd: %s: WithClasses must be non-negative, got %d", caller, c.classes)
	case c.encoding != Level && c.encoding != Scalar:
		return fmt.Errorf("privehd: %s: unknown encoding %d", caller, int(c.encoding))
	case c.keepDims < 0 || c.keepDims > c.dim:
		return fmt.Errorf("privehd: %s: WithPruning keep=%d out of range [0,%d]", caller, c.keepDims, c.dim)
	case c.retrainEpochs < 0:
		return fmt.Errorf("privehd: %s: WithRetrain epochs must be non-negative", caller)
	case c.maskDims < 0 || (c.maskDims > 0 && c.maskDims >= c.dim):
		return fmt.Errorf("privehd: %s: WithQueryMask dims=%d out of range [0,%d)", caller, c.maskDims, c.dim)
	case c.epsilon < 0:
		return fmt.Errorf("privehd: %s: WithNoise epsilon must be non-negative", caller)
	}
	if c.epsilon > 0 {
		if err := (dp.Params{Epsilon: c.epsilon, Delta: c.delta}).Validate(); err != nil {
			return fmt.Errorf("privehd: %s: %w", caller, err)
		}
	}
	return nil
}

// newEncoder builds the configured paper encoder: base and level
// hypervectors are deterministic in the geometry and seed, so a pipeline
// and every edge built with equal options share them.
func (c *config) newEncoder() (hdc.Encoder, error) {
	hd := hdc.Config{Dim: c.dim, Features: c.features, Levels: c.levels, Seed: c.seed}
	if c.encoding == Scalar {
		return hdc.NewScalarEncoder(hd)
	}
	return hdc.NewLevelEncoder(hd)
}

// labelSpace is the class count a training batch implies: WithClasses if
// set, max(label)+1 otherwise.
func (c *config) labelSpace(y []int) int {
	classes := c.classes
	if classes == 0 {
		for _, l := range y {
			if l+1 > classes {
				classes = l + 1
			}
		}
	}
	return classes
}

// kept is the number of dimensions the model keeps after pruning.
func (c *config) kept() int {
	if c.keepDims > 0 && c.keepDims < c.dim {
		return c.keepDims
	}
	return c.dim
}

// sensitivity is the ℓ2 bound ∆f the Gaussian mechanism is calibrated
// against, over the kept dimensions: Eq. 14 for a quantized encoding,
// Eq. 12 for an unquantized one. Train and Calibration both read it.
func (c *config) sensitivity() float64 {
	if _, isIdentity := c.quantizer.(quant.Identity); isIdentity {
		return quant.RawL2Sensitivity(c.kept(), c.features)
	}
	return quant.AnalyticL2Sensitivity(c.quantizer, c.kept())
}

// Option configures a Pipeline (New) or an Edge (NewEdge, Pipeline.Edge)
// through the functional-options pattern.
type Option func(*config)

// WithDim sets the hypervector dimensionality D_hv (default 10,000).
func WithDim(d int) Option {
	return func(c *config) { c.dim = d }
}

// WithLevels sets the number of feature quantization levels ℓ_iv of Eq. 1
// (default 100), at most 65 536: New and NewEdge refuse more. With Scalar
// encoding, features×(ℓ−1) must also stay within 2^31−1, or building the
// encoder fails.
func WithLevels(n int) Option {
	return func(c *config) { c.levels = n }
}

// WithFeatures fixes the input dimensionality D_iv. Pipelines may omit it
// and infer the width from the first training batch; edges and untrained
// servers need it up front. The encoder takes fewer than 2^20 features
// (New and NewEdge refuse more), and with Scalar encoding at most 65 536,
// with features×(ℓ−1) ≤ 2^31−1.
func WithFeatures(n int) Option {
	return func(c *config) { c.features = n }
}

// WithClasses fixes the label space size. When omitted, Train infers it as
// max(label)+1.
func WithClasses(n int) Option {
	return func(c *config) {
		c.classes = n
		c.pipeOnly = append(c.pipeOnly, "WithClasses")
	}
}

// WithEncoding selects the paper encoding: Level (Eq. 2b, default) or
// Scalar (Eq. 2a).
func WithEncoding(e Encoding) Option {
	return func(c *config) { c.encoding = e }
}

// WithQuantizer selects the encoding quantization scheme of Eq. 13 by name:
// "full" (no quantization), "bipolar", "ternary", "ternary-biased"
// (default) or "2bit".
func WithQuantizer(name string) Option {
	return func(c *config) {
		q, err := quant.Parse(name)
		if err != nil {
			c.errs = append(c.errs, err)
			return
		}
		c.quantizer = q
		c.pipeOnly = append(c.pipeOnly, "WithQuantizer")
	}
}

// WithPruning prunes the trained model down to keep effective dimensions
// (§III-B1) before retraining; 0 (the default) keeps every dimension.
func WithPruning(keep int) Option {
	return func(c *config) {
		c.keepDims = keep
		c.pipeOnly = append(c.pipeOnly, "WithPruning")
	}
}

// WithRetrain sets the number of Eq. 5 retraining passes after one-shot
// training (default 2; the paper finds 1–2 sufficient, Fig. 4).
func WithRetrain(epochs int) Option {
	return func(c *config) {
		c.retrainEpochs = epochs
		c.pipeOnly = append(c.pipeOnly, "WithRetrain")
	}
}

// WithNoise makes the released model (ε,δ)-differentially private by
// Gaussian noise scaled to the quantizer's Eq. 14 sensitivity (Eq. 12 when
// unquantized). Epsilon 0 disables noise.
func WithNoise(epsilon, delta float64) Option {
	return func(c *config) {
		c.epsilon = epsilon
		c.delta = delta
		c.pipeOnly = append(c.pipeOnly, "WithNoise")
	}
}

// WithSeed seeds every random substrate deterministically: base/level
// memories use seed, the DP noise stream seed+1 (unless WithNoiseSeed
// overrides it), the query mask seed+2. Equal options with equal seeds
// produce identical pipelines.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithNoiseSeed seeds the DP noise stream independently of the encoder
// seed — two releases of the same pipeline draw fresh noise by varying
// only this. Zero (the default) derives it as seed+1.
func WithNoiseSeed(seed uint64) Option {
	return func(c *config) {
		c.noiseSeed = seed
		c.pipeOnly = append(c.pipeOnly, "WithNoiseSeed")
	}
}

// WithWorkers bounds encoding parallelism (0, the default, uses
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithQueryMask nullifies this many randomly chosen dimensions of every
// outgoing edge query (the same dimensions for all queries, chosen at
// setup from the seed) — the §III-C masking defence. Edge-side only.
func WithQueryMask(dims int) Option {
	return func(c *config) {
		c.maskDims = dims
		c.edgeOnly = append(c.edgeOnly, "WithQueryMask")
	}
}

// WithRawQueries disables the 1-bit quantization of outgoing edge queries,
// sending full-precision encodings over the wire (the undefended baseline
// the paper's eavesdropper attacks). Edge-side only.
func WithRawQueries() Option {
	return func(c *config) {
		c.rawQueries = true
		c.edgeOnly = append(c.edgeOnly, "WithRawQueries")
	}
}
