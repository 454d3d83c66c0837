package privehd

import (
	"errors"
	"fmt"

	"privehd/internal/attack"
	"privehd/internal/core"
	"privehd/internal/hdc"
	"privehd/internal/intscore"
	"privehd/internal/offload"
)

// Edge prepares obfuscated queries on the device side of the §III-C
// inference split: it encodes locally, 1-bit quantizes (unless
// WithRawQueries) and masks (WithQueryMask) each query before anything
// crosses the network. The cloud-side model is neither accessed nor
// modified.
type Edge struct {
	cfg  config
	core *core.Edge
}

// NewEdge builds a standalone edge encoder from functional options. The
// geometry (WithFeatures, WithDim, WithLevels, WithEncoding, WithSeed)
// must match the serving model's encoder — base hypervectors are shared
// public setup — so WithFeatures is required here.
func NewEdge(opts ...Option) (*Edge, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate("NewEdge", cfg.pipeOnly); err != nil {
		return nil, err
	}
	if cfg.features <= 0 {
		return nil, errors.New("privehd: NewEdge requires WithFeatures (the encoder geometry is shared setup with the server)")
	}
	ce, err := core.NewEdge(core.EdgeConfig{
		HD:       hdc.Config{Dim: cfg.dim, Features: cfg.features, Levels: cfg.levels, Seed: cfg.seed},
		Encoding: core.Encoding(cfg.encoding),
		Quantize: !cfg.rawQueries,
		MaskDims: cfg.maskDims,
		MaskSeed: cfg.seed + 2,
	})
	if err != nil {
		return nil, err
	}
	return &Edge{cfg: cfg, core: ce}, nil
}

// Edge derives the client-side obfuscating encoder for this pipeline's
// geometry: same dimension, levels, encoding and seed, so its queries are
// compatible with the pipeline's model wherever it is served. Extra
// options layer the §III-C defences on top (WithQueryMask,
// WithRawQueries).
func (p *Pipeline) Edge(opts ...Option) (*Edge, error) {
	p.mu.RLock()
	cfg := p.cfg
	p.mu.RUnlock()
	if cfg.features <= 0 {
		return nil, errors.New("privehd: Pipeline.Edge needs the feature width (train first or pass WithFeatures to New)")
	}
	base := []Option{
		WithDim(cfg.dim),
		WithLevels(cfg.levels),
		WithFeatures(cfg.features),
		WithEncoding(cfg.encoding),
		WithSeed(cfg.seed),
		WithWorkers(cfg.workers),
	}
	return NewEdge(append(base, opts...)...)
}

// edgeFromServerHello builds the edge matching a server's advertised
// encoder setup — the auto-configuration path of Connect: base and level
// hypervectors are deterministic in the advertised (public) geometry and
// seed, so the resulting edge produces queries compatible with the served
// model without any hand-matched flags. Extra options layer the §III-C
// defences on top.
func edgeFromServerHello(h offload.ServerHello, opts ...Option) (*Edge, error) {
	if h.Features == 0 {
		return nil, fmt.Errorf("privehd: server advertised no encoder setup for model %q (registered without one); build the edge explicitly and pass it WithEdge", h.Model)
	}
	base := []Option{
		WithDim(h.Dim),
		WithLevels(h.Levels),
		WithFeatures(h.Features),
		WithEncoding(Encoding(h.Encoding)),
		WithSeed(h.Seed),
	}
	return NewEdge(append(base, opts...)...)
}

// Dim returns the hypervector dimensionality.
func (e *Edge) Dim() int { return e.cfg.dim }

// Features returns the input dimensionality.
func (e *Edge) Features() int { return e.cfg.features }

// Prepare returns the obfuscated query hypervector for one input — what
// actually crosses the network — as float64s. Clients send a quantizing
// edge's query as the two bit-planes its encoder writes, without ever
// widening it; Prepare is the float view for callers that inspect it.
func (e *Edge) Prepare(x []float64) ([]float64, error) {
	if err := e.check(x); err != nil {
		return nil, err
	}
	return e.core.Prepare(x), nil
}

func (e *Edge) check(x []float64) error {
	if len(x) != e.cfg.features {
		return fmt.Errorf("privehd: Prepare got %d features, edge encodes %d", len(x), e.cfg.features)
	}
	return nil
}

// PrepareBatch obfuscates a batch of inputs in parallel.
func (e *Edge) PrepareBatch(X [][]float64) ([][]float64, error) {
	if err := e.checkBatch(X); err != nil {
		return nil, err
	}
	return e.core.PrepareBatch(X, e.cfg.workers), nil
}

func (e *Edge) checkBatch(X [][]float64) error {
	for i, x := range X {
		if len(x) != e.cfg.features {
			return fmt.Errorf("privehd: PrepareBatch sample %d has %d features, edge encodes %d",
				i, len(x), e.cfg.features)
		}
	}
	return nil
}

// query prepares one input in its wire form: on a quantizing edge the
// packed query, encoded, quantized and masked straight into the two
// ⌈D/64⌉-word bit-planes whose bytes become the frame payload; under
// WithRawQueries the full-precision vector. The planes are never pooled —
// a hedged or retried attempt may still hold them after the call returns.
func (e *Edge) query(x []float64) (offload.Query, error) {
	if err := e.check(x); err != nil {
		return offload.Query{}, err
	}
	if e.cfg.rawQueries {
		return offload.Query{Vector: e.core.Prepare(x)}, nil
	}
	q := intscore.NewPlanes(e.cfg.dim)
	e.core.PreparePackedInto(x, q)
	return offload.Query{Packed: q}, nil
}

// queries is query over a batch, prepared in parallel.
func (e *Edge) queries(X [][]float64) ([]offload.Query, error) {
	if err := e.checkBatch(X); err != nil {
		return nil, err
	}
	qs := make([]offload.Query, len(X))
	if e.cfg.rawQueries {
		for i, h := range e.core.PrepareBatch(X, e.cfg.workers) {
			qs[i].Vector = h
		}
		return qs, nil
	}
	for i, q := range e.core.PreparePackedBatch(X, e.cfg.workers) {
		qs[i].Packed = q
	}
	return qs, nil
}

// Encode returns the raw, unobfuscated encoding of x — the undefended
// baseline the eavesdropper experiments compare against.
func (e *Edge) Encode(x []float64) []float64 {
	return e.core.Encoder().Encode(x)
}

// QuantizeTruth maps the input features onto their Eq. 1 level
// representatives — the best reconstruction any Eq. 10 decoder could
// achieve, used as ground truth when measuring an attack.
func (e *Edge) QuantizeTruth(x []float64) []float64 {
	out := make([]float64, len(x))
	for k, v := range x {
		out[k] = hdc.LevelValue(hdc.LevelIndex(v, e.cfg.levels), e.cfg.levels)
	}
	return out
}

// Reconstruct runs the paper's Eq. 10 reconstruction attack against a
// query hypervector (obfuscated or not) using the edge's public base
// hypervectors — the eavesdropper's point of view on whatever crossed the
// wire.
func (e *Edge) Reconstruct(query []float64) ([]float64, error) {
	bp, ok := e.core.Encoder().(hdc.BaseProvider)
	if !ok {
		return nil, errors.New("privehd: encoder does not expose base hypervectors")
	}
	return attack.DecodeScaled(bp, query)
}

// ReconstructionError quantifies how well a reconstruction matches the
// ground truth (MSE and PSNR in dB).
type ReconstructionError = attack.ReconstructionError

// MeasureReconstruction compares an attack's reconstruction against the
// ground-truth features.
func MeasureReconstruction(truth, recon []float64) ReconstructionError {
	return attack.Measure(truth, recon)
}

// RenderASCII renders a pixel vector as an ASCII-art image of the given
// row width — enough to judge reconstruction quality by eye, as the
// paper's Fig. 2/6 do.
func RenderASCII(pixels []float64, width int) string {
	return attack.RenderASCII(pixels, width)
}

// SideBySide joins two ASCII renderings line by line.
func SideBySide(left, right, gutter string) string {
	return attack.SideBySide(left, right, gutter)
}
