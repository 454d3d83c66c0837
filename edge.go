package privehd

import (
	"errors"
	"fmt"
	"sync"

	"privehd/internal/attack"
	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/offload"
	"privehd/internal/prune"
)

// Edge prepares obfuscated queries on the device side of the §III-C
// inference split: it encodes locally, 1-bit quantizes (unless
// WithRawQueries) and masks (WithQueryMask) each query before anything
// crosses the network. The cloud-side model is neither accessed nor
// modified ("our technique does not need to modify or access the trained
// model").
type Edge struct {
	cfg     config
	encoder hdc.Encoder
	// kept is the level engine restricted to the mask's kept dimensions,
	// non-nil on a quantizing, masked level edge.
	kept *hdc.RestrictedEncoder
	mask *prune.Mask // nil without WithQueryMask
	keep []uint64    // mask.Words(), the planes' AND mask
	// scratch pools the query planes Prepare widens from.
	scratch sync.Pool
}

// NewEdge builds a standalone edge encoder from functional options. The
// geometry (WithFeatures, WithDim, WithLevels, WithEncoding, WithSeed)
// must match the serving model's encoder — base hypervectors are shared
// public setup — so WithFeatures is required here. The query mask is the
// same WithQueryMask dimensions for every query, drawn once from seed+2.
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
	enc, err := cfg.newEncoder()
	if err != nil {
		return nil, err
	}
	e := &Edge{cfg: cfg, encoder: enc}
	if cfg.maskDims > 0 {
		e.mask = prune.RandomMask(cfg.dim, cfg.maskDims, hrand.New(cfg.seed+2).SampleK)
		e.keep = e.mask.Words()
		if le, ok := enc.(*hdc.LevelEncoder); ok && !cfg.rawQueries {
			if e.kept, err = le.Restrict(e.mask.Keep); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
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
	return e.prepare(x), nil
}

func (e *Edge) check(x []float64) error {
	if len(x) != e.cfg.features {
		return fmt.Errorf("privehd: Prepare got %d features, edge encodes %d", len(x), e.cfg.features)
	}
	return nil
}

// prepare is Prepare on a checked input. On a quantizing edge it is the
// expansion of preparePackedInto's planes, so quantization and masking
// happen in one place; an edge that does not quantize returns the masked
// full-precision encoding.
func (e *Edge) prepare(x []float64) []float64 {
	if e.cfg.rawQueries {
		h := e.encoder.Encode(x)
		if e.mask != nil {
			e.mask.Apply(h)
		}
		return h
	}
	pk, ok := e.scratch.Get().(*intscore.Planes)
	if !ok {
		planes := intscore.NewPlanes(e.cfg.dim)
		pk = &planes
	}
	e.preparePackedInto(x, *pk)
	h := make([]float64, pk.Dim)
	for j := range h {
		h[j] = float64(pk.Symbol(j))
	}
	e.scratch.Put(pk)
	return h
}

// preparePackedInto writes the obfuscated 1-bit query for one checked
// input into the planes dst (Dim dimensions) — the form that crosses the
// network: the bipolar quantization of the encoding with the masked
// dimensions zeroed. Nothing is allocated and the result is bit-identical
// to encode, quantize, then mask. A level edge reads each sign straight
// off the engine's counters, and a masked one encodes only the kept
// dimensions, from a memory compacted once in NewEdge; a scalar edge
// derives the signs from its integer numerators and then masks with one
// AND per word. The edge must quantize (no WithRawQueries).
func (e *Edge) preparePackedInto(x []float64, dst intscore.Planes) {
	if e.kept != nil {
		e.kept.EncodeBipolarInto(x, dst)
		return
	}
	e.encoder.EncodePackedInto(x, encslice.SchemeBipolar, dst)
	if e.keep != nil {
		dst.And(e.keep)
	}
}

// PrepareBatch obfuscates a batch of inputs in parallel.
func (e *Edge) PrepareBatch(X [][]float64) ([][]float64, error) {
	if err := checkRows("PrepareBatch", X, e.cfg.features); err != nil {
		return nil, err
	}
	out := make([][]float64, len(X))
	forEachRow(len(X), e.cfg.workers, func(i int) {
		out[i] = e.prepare(X[i])
	})
	return out, nil
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
		return offload.Query{Vector: e.prepare(x)}, nil
	}
	q := intscore.NewPlanes(e.cfg.dim)
	e.preparePackedInto(x, q)
	return offload.Query{Packed: q}, nil
}

// queries is query over a batch, prepared in parallel; the packed queries'
// planes share one allocation.
func (e *Edge) queries(X [][]float64) ([]offload.Query, error) {
	if err := checkRows("PrepareBatch", X, e.cfg.features); err != nil {
		return nil, err
	}
	qs := make([]offload.Query, len(X))
	if e.cfg.rawQueries {
		forEachRow(len(X), e.cfg.workers, func(i int) {
			qs[i].Vector = e.prepare(X[i])
		})
		return qs, nil
	}
	n := 2 * intscore.Words(e.cfg.dim)
	buf := make([]uint64, len(X)*n)
	forEachRow(len(X), e.cfg.workers, func(i int) {
		qs[i].Packed = intscore.Planes{Dim: e.cfg.dim, Bits: buf[i*n : (i+1)*n : (i+1)*n]}
		e.preparePackedInto(X[i], qs[i].Packed)
	})
	return qs, nil
}

// Encode returns the raw, unobfuscated encoding of x — the undefended
// baseline the eavesdropper experiments compare against.
func (e *Edge) Encode(x []float64) []float64 {
	return e.encoder.Encode(x)
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
	bp, ok := e.encoder.(hdc.BaseProvider)
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
