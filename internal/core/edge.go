package core

import (
	"fmt"
	"runtime"
	"sync"

	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/par"
	"privehd/internal/prune"
	"privehd/internal/quant"
)

// EdgeConfig assembles the §III-C inference-privacy path: the edge device
// encodes locally and obfuscates the query — 1-bit quantization plus random
// dimension masking — before offloading to an untrusted host. The host's
// full-precision model is neither accessed nor modified ("our technique
// does not need to modify or access the trained model").
type EdgeConfig struct {
	// HD is the encoder geometry; it must match the cloud model's
	// encoder (base hypervectors are shared public setup).
	HD hdc.Config
	// Encoding selects Eq. 2a or 2b.
	Encoding Encoding
	// Quantize applies 1-bit (bipolar) quantization to outgoing queries.
	Quantize bool
	// MaskDims nullifies this many randomly chosen dimensions of every
	// outgoing query (the same dimensions for all queries, chosen at
	// setup).
	MaskDims int
	// MaskSeed seeds the mask choice.
	MaskSeed uint64
}

// Edge prepares obfuscated queries on the device.
type Edge struct {
	cfg     EdgeConfig
	encoder hdc.Encoder
	// kept is the level engine restricted to the mask's kept dimensions,
	// non-nil on a quantizing, masked level edge.
	kept *hdc.RestrictedEncoder
	mask *prune.Mask // nil when MaskDims == 0
	keep []uint64    // mask.Words(), the planes' AND mask
	// scratch pools the query planes Prepare widens from.
	scratch sync.Pool
}

// NewEdge builds the edge-side encoder.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	if err := cfg.HD.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaskDims < 0 || cfg.MaskDims >= cfg.HD.Dim {
		return nil, fmt.Errorf("core: MaskDims %d out of range [0,%d)", cfg.MaskDims, cfg.HD.Dim)
	}
	enc, err := newEncoder(Config{HD: cfg.HD, Encoding: cfg.Encoding, Quantizer: quant.Identity{}})
	if err != nil {
		return nil, err
	}
	e := &Edge{cfg: cfg, encoder: enc}
	if cfg.MaskDims > 0 {
		src := hrand.New(cfg.MaskSeed)
		e.mask = prune.RandomMask(cfg.HD.Dim, cfg.MaskDims, src.SampleK)
		e.keep = e.mask.Words()
		if le, ok := enc.(*hdc.LevelEncoder); ok && cfg.Quantize {
			if e.kept, err = le.Restrict(e.mask.Keep); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// Encoder exposes the underlying encoder (shared setup with the cloud).
func (e *Edge) Encoder() hdc.Encoder { return e.encoder }

// Mask returns the query mask, or nil when masking is off.
func (e *Edge) Mask() *prune.Mask { return e.mask }

// Prepare returns the obfuscated query hypervector for one input as
// float64s. On a quantizing edge it is the expansion of PreparePackedInto's
// planes, so quantization and masking happen in one place; an edge that
// does not quantize returns the masked full-precision encoding.
func (e *Edge) Prepare(x []float64) []float64 {
	if !e.cfg.Quantize {
		h := e.encoder.Encode(x)
		if e.mask != nil {
			e.mask.Apply(h)
		}
		return h
	}
	pk := e.getPlanes()
	e.PreparePackedInto(x, *pk)
	h := make([]float64, pk.Dim)
	for j := range h {
		h[j] = float64(pk.Symbol(j))
	}
	e.scratch.Put(pk)
	return h
}

// PreparePackedInto writes the obfuscated 1-bit query for one input into
// the planes dst (Dim dimensions) — the form that crosses the network: the
// bipolar quantization of the encoding with the masked dimensions zeroed.
// Nothing is allocated and the result is bit-identical to encode,
// quantize, then mask. A level edge reads each sign straight off the
// engine's counters, and a masked one encodes only the kept dimensions,
// from a memory compacted once in NewEdge; a scalar edge derives the signs
// from its integer numerators and then masks with one AND per word. It
// reports false, writing nothing, when the edge does not quantize: its
// queries are full precision and have no packed form.
func (e *Edge) PreparePackedInto(x []float64, dst intscore.Planes) bool {
	if !e.cfg.Quantize {
		return false
	}
	if e.kept != nil {
		e.kept.EncodeBipolarInto(x, dst)
		return true
	}
	e.encoder.EncodePackedInto(x, encslice.SchemeBipolar, dst)
	if e.keep != nil {
		dst.And(e.keep)
	}
	return true
}

func (e *Edge) getPlanes() *intscore.Planes {
	if p, ok := e.scratch.Get().(*intscore.Planes); ok {
		return p
	}
	p := intscore.NewPlanes(e.cfg.HD.Dim)
	return &p
}

// PrepareBatch obfuscates a batch of inputs, spreading Prepare over
// workers (<=0 selects GOMAXPROCS) with rows claimed off an atomic cursor.
func (e *Edge) PrepareBatch(X [][]float64, workers int) [][]float64 {
	out := make([][]float64, len(X))
	forEachRow(len(X), workers, func(i int) {
		out[i] = e.Prepare(X[i])
	})
	return out
}

// PreparePackedBatch is PreparePackedInto over a batch, spread over
// workers like PrepareBatch; the queries' planes share one allocation. It
// returns nil when the edge does not quantize.
func (e *Edge) PreparePackedBatch(X [][]float64, workers int) []intscore.Planes {
	if !e.cfg.Quantize {
		return nil
	}
	dim := e.cfg.HD.Dim
	n := 2 * intscore.Words(dim)
	buf := make([]uint64, len(X)*n)
	out := make([]intscore.Planes, len(X))
	forEachRow(len(X), workers, func(i int) {
		out[i] = intscore.Planes{Dim: dim, Bits: buf[i*n : (i+1)*n : (i+1)*n]}
		e.PreparePackedInto(X[i], out[i])
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
