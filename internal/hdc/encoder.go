package hdc

import (
	"fmt"
	"runtime"
	"sync"

	"privehd/internal/bitvec"
	"privehd/internal/encslice"
	"privehd/internal/hrand"
	"privehd/internal/intscore"
	"privehd/internal/par"
)

// ScalarEncoder implements paper Eq. 2a:
//
//	~H = Σ_k f(v_k) · ~B_k
//
// Each feature is quantized to its level value f ∈ F and multiplied into the
// corresponding bipolar base hypervector. The encoding is linear in the
// feature values, which is exactly what the Eq. 9–10 reconstruction attack
// exploits.
//
// The sum is evaluated exactly: f(v) = lv/(ℓ−1) for an integer level index
// lv, so (ℓ−1)·~H is an integer vector the bit-sliced engine computes with
// popcount arithmetic, finished by a single float64 division. (The
// pre-engine implementation accumulated the rounded float level values per
// feature instead; results agree to within one unit in the last place per
// feature, and the exact form is the better reference.)
type ScalarEncoder struct {
	engineEncoder
}

// NewScalarEncoder builds a scalar (Eq. 2a) encoder for the configuration.
// Beyond Config's limits the scalar engine takes at most
// encslice.MaxLevels features, with features×(ℓ−1) ≤ MaxInt32; a geometry
// outside them fails with an error wrapping ErrGeometry.
func NewScalarEncoder(cfg Config) (*ScalarEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	item := itemWords(hrand.New(cfg.Seed).Split(0), cfg.Features, cfg.Dim)
	engine, err := encslice.NewScalar(cfg.Dim, cfg.Levels, item)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrGeometry, err)
	}
	return &ScalarEncoder{engineEncoder{cfg: cfg, engine: engine}}, nil
}

// encodeRefInto is the reference Eq. 2a loop: the exact integer numerator
// accumulated per feature (every partial sum is a small integer, so the
// float64 arithmetic is exact and bit-identical to the engine), divided
// once by ℓ−1. It is the oracle the equivalence tests and the reference
// benchmarks compare the engine against.
func (e *ScalarEncoder) encodeRefInto(features, h []float64) []float64 {
	for j := range h {
		h[j] = 0
	}
	for k, v := range features {
		// The level-value numerator LevelValue·(ℓ−1) is the index itself.
		lv := float64(LevelIndex(v, e.cfg.Levels))
		if lv == 0 {
			continue
		}
		addSigns(h, lv, func(w int) uint64 { return e.engine.Word(false, k, w) })
	}
	d := float64(e.cfg.Levels - 1)
	for j := range h {
		h[j] /= d
	}
	return h
}

// LevelEncoder implements paper Eq. 2b:
//
//	~H = Σ_k ~L_{v_k} ⊙ ~B_k
//
// The level hypervector associated with each feature's quantization level is
// XNOR-multiplied with the feature's base hypervector and the ±1 products
// are accumulated. This is the encoding the FPGA implementation adopts
// ("better optimization opportunity") because every partial product is a
// single bit — which is also why the bit-sliced engine computes it with
// XNOR + carry-save popcount accumulation instead of a float64 MAC.
type LevelEncoder struct {
	engineEncoder
}

// NewLevelEncoder builds a level (Eq. 2b) encoder for the configuration. A
// geometry beyond the engine's limits fails with an error wrapping
// ErrGeometry.
func NewLevelEncoder(cfg Config) (*LevelEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := hrand.New(cfg.Seed)
	engine, err := encslice.NewLevel(cfg.Dim,
		itemWords(src.Split(0), cfg.Features, cfg.Dim),
		levelWords(src.Split(1), cfg.Levels, cfg.Dim))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrGeometry, err)
	}
	return &LevelEncoder{engineEncoder{cfg: cfg, engine: engine}}, nil
}

// encodeRefInto is the reference Eq. 2b loop (word-expanding XNOR
// accumulation): the oracle the equivalence tests and the reference
// benchmarks compare the engine against. Both add only ±1 terms, so they
// are bit-identical.
func (e *LevelEncoder) encodeRefInto(features, h []float64) []float64 {
	for j := range h {
		h[j] = 0
	}
	for k, v := range features {
		lv := LevelIndex(v, e.cfg.Levels)
		addSigns(h, 1, func(w int) uint64 {
			return ^(e.engine.Word(true, lv, w) ^ e.engine.Word(false, k, w))
		})
	}
	return h
}

// Restrict builds the encoder of the masked bipolar query over the
// dimensions keep (length Dim) marks true: its engine memory holds only
// the kept dimensions, so each query encodes only what it sends.
func (e *LevelEncoder) Restrict(keep []bool) (*RestrictedEncoder, error) {
	r, err := e.engine.Restrict(keep)
	if err != nil {
		return nil, err
	}
	return &RestrictedEncoder{cfg: e.cfg, engine: r}, nil
}

// RestrictedEncoder is a LevelEncoder confined to a fixed dimension mask,
// built once by LevelEncoder.Restrict. It is immutable and safe for
// concurrent use.
type RestrictedEncoder struct {
	cfg    Config
	engine *encslice.Restricted
}

// EncodeBipolarInto writes the masked 1-bit query into the planes dst (Dim
// dimensions):
// the bipolar quantization of the Eq. 2b encoding at every kept dimension
// and 0 at every masked one — bit-identical to quantizing the full
// encoding and then zeroing the masked dimensions, at the cost of the kept
// dimensions alone.
func (r *RestrictedEncoder) EncodeBipolarInto(features []float64, dst intscore.Planes) {
	if len(features) != r.cfg.Features || dst.Dim != r.cfg.Dim {
		panic(fmt.Sprintf("hdc: RestrictedEncoder got %d features into dim %d, want %d into %d",
			len(features), dst.Dim, r.cfg.Features, r.cfg.Dim))
	}
	p := getLvi(r.cfg.Features)
	r.engine.EncodeBipolarInto(fillLvi(*p, features, r.cfg.Levels), dst.Bits)
	putLvi(p)
}

// BitPlanes returns, for each feature k, the packed ±1 partial product
// ~L_{v_k} ⊙ ~B_k. The element-wise popcount majority of these planes is
// the sign-quantized encoding — the exact computation the Fig. 7a LUT
// circuit performs. The planes are read back from the engine's memory;
// the fpga package consumes them.
func (e *LevelEncoder) BitPlanes(features []float64) []*bitvec.Vector {
	if len(features) != e.cfg.Features {
		panic(fmt.Sprintf("hdc: LevelEncoder.BitPlanes got %d features, want %d",
			len(features), e.cfg.Features))
	}
	planes := make([]*bitvec.Vector, len(features))
	for k, v := range features {
		planes[k] = bitvec.Xnor(e.vector(true, LevelIndex(v, e.cfg.Levels)), e.vector(false, k))
	}
	return planes
}

// vector reads base vector k, or level vector k when level is set, back
// out of the engine.
func (e *engineEncoder) vector(level bool, k int) *bitvec.Vector {
	v := bitvec.New(e.cfg.Dim)
	words := v.Words()
	for w := range words {
		words[w] = e.engine.Word(level, k, w)
	}
	return v
}

// addSigns adds s at every dimension whose bit is set in the words word(w)
// returns and −s at every other one: acc[j] += s·(±1), the reference
// loops' accumulation. It reads four bits at a time through a table of
// their signs.
func addSigns(acc []float64, s float64, word func(w int) uint64) {
	var signs [16][4]float64 // signs[n][i] is ±s by bit i of n
	for n := range signs {
		for i := range signs[n] {
			signs[n][i] = float64(n>>i&1*2-1) * s
		}
	}
	for w := 0; 64*w < len(acc); w++ {
		x := word(w)
		chunk := acc[64*w : min(64*w+64, len(acc))]
		for ; len(chunk) >= 4; chunk, x = chunk[4:], x>>4 {
			t := &signs[x&15]
			chunk[0] += t[0]
			chunk[1] += t[1]
			chunk[2] += t[2]
			chunk[3] += t[3]
		}
		for i := range chunk {
			chunk[i] += signs[x&15][i]
		}
	}
}

// lviPool recycles the per-call level-index scratch shared by every
// encode path.
var lviPool sync.Pool

func getLvi(n int) *[]uint16 {
	if p, ok := lviPool.Get().(*[]uint16); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]uint16, n)
	return &s
}

func putLvi(p *[]uint16) { lviPool.Put(p) }

// fillLvi writes each feature's quantization level index into buf.
func fillLvi(buf []uint16, features []float64, levels int) []uint16 {
	for k, v := range features {
		buf[k] = uint16(LevelIndex(v, levels))
	}
	return buf
}

// engineEncoder is what both paper encoders share: the configuration and
// the bit-sliced engine every encode runs on, which holds the only copy of
// the item (and level) memory.
type engineEncoder struct {
	cfg    Config
	engine *encslice.Engine
}

// Dim returns D_hv.
func (e *engineEncoder) Dim() int { return e.cfg.Dim }

// NumFeatures returns D_iv.
func (e *engineEncoder) NumFeatures() int { return e.cfg.Features }

// Levels returns ℓ_iv.
func (e *engineEncoder) Levels() int { return e.cfg.Levels }

// BaseInto writes base hypervector B_k, read back from the engine, into
// dst (length Dim) as ±1 floats and returns dst.
func (e *engineEncoder) BaseInto(k int, dst []float64) []float64 {
	if len(dst) != e.cfg.Dim {
		panic(fmt.Sprintf("hdc: BaseInto buffer has dim %d, want %d", len(dst), e.cfg.Dim))
	}
	clear(dst)
	addSigns(dst, 1, func(w int) uint64 { return e.engine.Word(false, k, w) })
	return dst
}

// Encode returns the encoding of the given normalized features. It panics
// if len(features) != NumFeatures().
func (e *engineEncoder) Encode(features []float64) []float64 {
	return e.EncodeInto(features, make([]float64, e.cfg.Dim))
}

// EncodeInto is Encode writing into a caller-provided Dim-length buffer —
// the allocation-free form for pooled serving hot paths. It returns h.
func (e *engineEncoder) EncodeInto(features, h []float64) []float64 {
	e.check(features, len(h))
	p := getLvi(e.cfg.Features)
	e.engine.EncodeInto(fillLvi(*p, features, e.cfg.Levels), h)
	putLvi(p)
	return h
}

// EncodePackedInto fuses encode and quantize on the bit-sliced engine,
// writing the −2…+1 query for the scheme into the planes dst (Dim
// dimensions) — bit-identical to encoding and then quantizing the float
// hypervector. A level encoder's bipolar query never forms a count at
// all: a comparator reads each dimension's sign off the counter slices.
// It panics on SchemeNone, which has no packed form.
func (e *engineEncoder) EncodePackedInto(features []float64, scheme encslice.Scheme, dst intscore.Planes) {
	if scheme == encslice.SchemeNone {
		panic("hdc: EncodePackedInto needs a quantization scheme, got SchemeNone")
	}
	e.check(features, dst.Dim)
	p := getLvi(e.cfg.Features)
	e.engine.EncodePackedInto(fillLvi(*p, features, e.cfg.Levels), scheme, dst.Bits)
	putLvi(p)
}

// encodeRows encodes len(X) feature rows into the contiguous buffer h
// (len(X)×Dim). With SchemeNone it writes the encodings on the engine's
// batch kernel, which streams each 64-dimension column of the item memory
// once for the whole chunk of rows; with a scheme it writes their
// quantizations as −2…+1 symbols. It computes all level indices up front
// into pooled scratch.
func (e *engineEncoder) encodeRows(X [][]float64, scheme encslice.Scheme, h []float64) {
	F := e.cfg.Features
	p := getLvi(len(X) * F)
	lvi := *p
	for r, x := range X {
		if len(x) != F {
			panic(fmt.Sprintf("hdc: EncodeBatch row has %d features, want %d", len(x), F))
		}
		fillLvi(lvi[r*F:(r+1)*F], x, e.cfg.Levels)
	}
	if scheme == encslice.SchemeNone {
		e.engine.EncodeBatchInto(lvi, len(X), h)
	} else {
		e.engine.EncodeQuantizedBatchInto(lvi, len(X), scheme, h)
	}
	putLvi(p)
}

func (e *engineEncoder) check(features []float64, dimLen int) {
	if len(features) != e.cfg.Features {
		panic(fmt.Sprintf("hdc: Encode got %d features, want %d", len(features), e.cfg.Features))
	}
	if dimLen != e.cfg.Dim {
		panic(fmt.Sprintf("hdc: Encode buffer has dim %d, want %d", dimLen, e.cfg.Dim))
	}
}

// encodeBatchChunk is how many rows one worker claims at a time: large
// enough for the engine's batch kernel to amortize each item-memory column
// across the chunk, small enough to keep workers balanced on short batches.
const encodeBatchChunk = 8

// EncodeBatch encodes every row of X concurrently and returns the encodings
// in order. workers <= 0 selects GOMAXPROCS. Encoding reads only the
// engine, fixed at construction, so the workers share enc without locking.
//
// The returned rows are views into one contiguous backing array
// (len(X)·Dim floats, one allocation); workers claim fixed-size chunks off
// an atomic cursor and encode each on the bit-sliced engine's multi-row
// kernel. Callers must not append to the returned rows.
func EncodeBatch(enc Encoder, X [][]float64, workers int) [][]float64 {
	return encodeBatch(enc, X, encslice.SchemeNone, workers)
}

// EncodeQuantizedBatch is EncodeBatch fused with quantization, the
// training path's encoder: each row is the scheme's −2…+1 quantization of
// its encoding, derived on the bit-sliced engine from the integer counts
// (count → cut point → planes) and widened to float64. The values are
// exact small integers, bit-identical to quantizing EncodeBatch's rows
// with the corresponding quant scheme. Each chunk of rows encodes on an
// engine working set of its own that it drops when done, so no pooled
// scratch keeps the engine reachable after the call. It panics on
// SchemeNone.
func EncodeQuantizedBatch(enc Encoder, X [][]float64, scheme encslice.Scheme, workers int) [][]float64 {
	if scheme == encslice.SchemeNone {
		panic("hdc: EncodeQuantizedBatch needs a quantization scheme, got SchemeNone")
	}
	return encodeBatch(enc, X, scheme, workers)
}

func encodeBatch(enc Encoder, X [][]float64, scheme encslice.Scheme, workers int) [][]float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(X) == 0 {
		return nil
	}
	dim := enc.Dim()
	backing := make([]float64, len(X)*dim)
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	par.ForEachChunk(len(X), encodeBatchChunk, workers, func(start, end int) {
		enc.encodeRows(X[start:end], scheme, backing[start*dim:end*dim])
	})
	return out
}
