// Package encslice is the bit-sliced encoding engine: it evaluates the two
// paper encodings (Eq. 2a/2b) entirely in the bit domain, replacing the
// per-feature float64 multiply-add over all D dimensions with carry-save-
// adder (Harley–Seal-style) popcount accumulation over packed bit-planes —
// the software form of the paper's FPGA mapping, where every Eq. 2b partial
// product is one XNOR and the accumulation is an adder tree (Fig. 7).
//
// # Representation
//
// Base and level hypervectors are ±1 bipolar vectors packed one bit per
// dimension (bit=1 ⇔ +1, the bitvec convention). The engine stores them
// grouped by column: the ⌈D/64⌉ word columns, zero-padded to a multiple
// of eight, form groups of eight (512 dimensions), and within a group
// each vector's eight words are one contiguous 64-byte row. One level
// index thus fetches one level row, a kernel pass streams a group's base
// rows with unit stride, and a multi-query batch reuses each group while
// it is hot in cache. This layout is the only copy of the item and level
// memories that an encoder keeps; Word reads a vector back out of it.
//
// # Counting
//
// For each group the engine counts, per bit lane of its eight columns,
// how many of the F partial-product planes have the bit set. Planes are
// absorbed by a Harley–Seal tree of carry-save adders into one-weight/
// two-weight/four-weight/eight-weight bit-slices, which emits a single
// sixteen-weight carry rippled into a small stack of higher-order counter
// planes, only as deep as F needs. After all planes are absorbed, lane
// j's count is simply the binary number assembled from the slices:
//
//	cnt(j) = ones_j + 2·twos_j + 4·fours_j + 8·eights_j + 16·Σ_l hi[l]_j·2^l
//
// Every addition is a lane-wise bitwise operation, so the amortized cost
// is a handful of word ops per feature per 64 dimensions — versus 64
// float64 multiply-adds on the float path.
//
// # Kernels
//
// The accumulation runs on one of three kernels, picked once at package
// init from what internal/cpu reports of CPUID and the register state the
// OS saves (XGETBV):
//
//   - AVX-512F: a group's eight columns in one ZMM register per slice, a
//     carry-save adder as one VPTERNLOGQ majority (0xE8) and one sum
//     (0x96), and the whole high stack in registers;
//   - AVX2: each group as two four-column halves in YMM registers, with
//     VPXOR/VPAND/VPOR adders and the high stack beyond six levels in
//     memory;
//   - pure Go: the same tree one 64-bit column at a time. It runs on
//     CPUs with neither extension, off amd64 and wherever the module is
//     built with the purego tag.
//
// Each kernel has two entries: xor counts the mismatches between level
// rows selected by the level indices and the base rows (level mode), and
// gather counts base rows selected by a feature list (scalar digit
// groups). The kernels read the item memory without bounds checks, so
// every entry point checks the level indices first. All three produce the
// same counter slices word for word.
//
// # The two encodings
//
// Level (Eq. 2b): the partial product L_{v_k} ⊙ B_k is the XNOR of the
// packed words. The kernels count its complement, the mismatch plane
// L_{v_k} ⊕ B_k, which saves the NOT: with m[j] mismatches the XNOR count
// is F − m[j] and h[j] = 2·(F − m[j]) − F = F − 2·m[j] exactly —
// identical to the reference float loop, which only ever adds ±1 terms
// and is therefore exact integer arithmetic in float64.
//
// Scalar (Eq. 2a): h[j] = Σ_k f(v_k)·B_k[j] with f(v) = lv/(ℓ−1) for the
// integer level index lv. The engine groups features by the binary digits
// of lv — group p holds the features whose level index has bit p set — and
// CSA-counts each group's base planes:
//
//	(ℓ−1)·h[j] = Σ_p 2^p · (2·cnt_p[j] − |S_p|)
//
// The numerator is exact integer math (Σ_k lv_k·(±1), bounded well below
// 2^53), finished by a single float64 division by ℓ−1. Grouping by digit
// needs only ⌈log2 ℓ⌉ counting passes instead of one per distinct level
// value, while computing the same Σ_f f·(2·cnt_f[j] − |S_f|) sum.
//
// # Fused quantization
//
// Serving's Predict path needs only the quantized −2…+1 query, so
// EncodePackedInto derives it straight from the integer numerators without
// materializing a float hypervector, and writes it in the serving path's
// one query form: two bit-planes of ⌈D/64⌉ words, lo then hi, with symbol
// s = lo − 2·hi (the intscore.Planes layout). The quantizers' sign tests
// and cut points commute with the strictly monotone map n ↦ n/(ℓ−1)
// (distinct integers in range never collide after the division), so
// cutting the integers with the same tie-by-index rule produces output
// bit-identical to running quant.QuantizeInto on the float encoding. A
// ternary scheme's cut is the ⌊p₀·D⌋-th smallest |n| plus how many of its
// ties to zero in index order; two-bit has three cuts on n. Each is found
// by a counting histogram over the integer keys (one pass in level mode,
// where |n| ≤ F) or a radix select over a wider range, and the planes are
// then written a word at a time against the cuts.
//
// EncodeQuantizedBatchInto runs the same count → cut → planes step over a
// batch of rows and widens each row's planes to float64 symbols: training
// bundles those exact small integers, so a model trained on them is
// bit-identical to one trained on the quantized float encodings.
//
// The level-mode bipolar query — the edge's 1-bit obfuscation — never forms
// a count at all. Its sign is −1 exactly when F − 2·m < 0, that is when
// m ≥ ⌊F/2⌋+1: the complement of the majority of the XNOR planes, the
// paper's Fig. 7a circuit (see internal/fpga.ExactMajority) and the
// threshold step of binarized bundling. A comparator walks the counter
// slices MSB first against that constant, keeping a greater-than mask and
// an equal mask, and yields 64 sign bits per word column, which are the
// query's planes already: every dimension is odd (lo set) and the
// negative lanes set hi. Scalar mode keeps the numerator read-off, because its sign is
// a weighted sum over digit groups rather than one threshold.
//
// # Compaction
//
// A query mask fixed at setup zeroes the same dimensions of every query,
// so there is no need to encode them. Restrict gathers the kept
// dimensions' bits out of a level engine's memory into a compacted
// column-grouped memory, once; the comparator then runs over ⌈kept/64⌉
// word columns. The lo plane is the kept set itself, and each negative
// lane sets the hi bit of its dimension, leaving 0 at every masked one.
// The result is bit-identical to quantizing the full encoding and masking
// it.
//
// Engines are immutable after construction and safe for concurrent use;
// the per-query working sets come from an internal sync.Pool, so the
// encoding hot paths allocate nothing. The batch path allocates its own
// working set and drops it, so a trained engine that is discarded leaves
// no pooled scratch pointing back at it.
package encslice

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Scheme selects the fused quantization rule of EncodePackedInto. The
// values mirror the quant package's paper schemes; callers map their
// quantizer onto a Scheme (SchemeNone disables the fused path).
type Scheme int

const (
	// SchemeNone marks "no fused quantization available".
	SchemeNone Scheme = iota
	// SchemeBipolar is sign quantization onto {−1,+1} (zero maps to +1).
	SchemeBipolar
	// SchemeTernary zeroes the ⌊D/3⌋ smallest-magnitude dimensions.
	SchemeTernary
	// SchemeBiasedTernary zeroes the ⌊D/2⌋ smallest-magnitude dimensions.
	SchemeBiasedTernary
	// SchemeTwoBit maps the quarters of the (value, index) order, split at
	// three cut points, onto {−2,−1,0,+1}.
	SchemeTwoBit
)

// Engine limits: level indices travel as uint16, counts and scalar
// numerators as int32, and the high counter stack is a fixed array. An
// engine takes at most MaxLevels levels and fewer than MaxFeatures
// features; a scalar engine also takes at most MaxLevels features, with
// features×(levels−1) ≤ MaxInt32.
const (
	MaxLevels   = 1 << 16
	MaxFeatures = 1 << 20
	hiPlanes    = 16 // features < 2^20 ⇒ at most 16 planes above eights
)

// Engine encodes queries for one fixed item (and, in level mode, level)
// memory. It is immutable after construction and safe for concurrent use.
type Engine struct {
	dim      int
	features int
	levels   int
	words    int // ⌈dim/64⌉
	groups   int // ⌈words/groupCols⌉

	scalar  bool
	denom   float64 // ℓ−1 as float64; scalar-mode divisor
	maxBits int     // scalar: bits.Len(ℓ−1), number of digit groups
	hi      int     // high counter planes needed for counts ≤ features

	// baseT is the base memory grouped by column: for group g of
	// groupCols word columns, baseT[(g·features+k)·groupCols+c] is word
	// groupCols·g+c of base hypervector k (see wordAt). lvlT (level mode
	// only) is the same layout over the ℓ level hypervectors. Words past
	// ⌈dim/64⌉ are zero padding and tail bits beyond dim are never
	// extracted, so neither content matters.
	baseT []uint64
	lvlT  []uint64

	scratch sync.Pool
}

// scratch is one call's working set.
type scratch struct {
	v     []int32  // per-dimension integer numerators
	lists []uint16 // scalar: concatenated digit-group feature lists
	off   []int    // scalar: maxBits+1 offsets into lists
}

// NewLevel builds an Eq. 2b engine from packed word slices: base[k] and
// level[i] are the bitvec words (64 dims per word, bit=1 ⇔ +1) of base
// hypervector k and level hypervector i. The words are copied into the
// engine's column-grouped layout, which is then the memories' only copy:
// callers may drop or mutate theirs afterwards and read vectors back with
// Word. The layout takes (len(base)+len(level))·⌈dim/512⌉·64 bytes.
func NewLevel(dim int, base, level [][]uint64) (*Engine, error) {
	e, err := newEngine(dim, len(base), len(level), false)
	if err != nil {
		return nil, err
	}
	if err := e.fill(e.baseT, base, "base"); err != nil {
		return nil, err
	}
	if err := e.fill(e.lvlT, level, "level"); err != nil {
		return nil, err
	}
	return e, nil
}

// NewScalar builds an Eq. 2a engine over the given packed base vectors and
// quantization level count.
func NewScalar(dim, levels int, base [][]uint64) (*Engine, error) {
	e, err := newEngine(dim, len(base), levels, true)
	if err != nil {
		return nil, err
	}
	if err := e.fill(e.baseT, base, "base"); err != nil {
		return nil, err
	}
	return e, nil
}

func newEngine(dim, features, levels int, scalar bool) (*Engine, error) {
	switch {
	case dim <= 0:
		return nil, fmt.Errorf("encslice: dim must be positive, got %d", dim)
	case features <= 0:
		return nil, fmt.Errorf("encslice: need at least one base vector")
	case features >= MaxFeatures:
		return nil, fmt.Errorf("encslice: %d features reaches the engine limit %d", features, MaxFeatures)
	case levels < 2:
		return nil, fmt.Errorf("encslice: need at least 2 levels, got %d", levels)
	case levels > MaxLevels:
		return nil, fmt.Errorf("encslice: %d levels exceeds the engine limit %d", levels, MaxLevels)
	}
	if scalar && features > math.MaxInt32/(levels-1) {
		// The scalar numerator Σ lv_k·(±1) must fit int32.
		return nil, fmt.Errorf("encslice: features×(levels-1) = %d×%d exceeds the scalar numerator limit %d", features, levels-1, math.MaxInt32)
	}
	if scalar && features > MaxLevels {
		// The scalar digit-group lists index features as uint16.
		return nil, fmt.Errorf("encslice: %d features exceeds the scalar-mode limit %d", features, MaxLevels)
	}
	hi := bits.Len(uint(features)) - 4
	if hi < 0 {
		hi = 0
	}
	e := &Engine{
		dim:      dim,
		features: features,
		levels:   levels,
		words:    (dim + 63) / 64,
		groups:   (dim + 64*groupCols - 1) / (64 * groupCols),
		scalar:   scalar,
		denom:    float64(levels - 1),
		maxBits:  bits.Len(uint(levels - 1)),
		hi:       hi,
	}
	e.baseT = make([]uint64, e.groups*groupCols*features)
	if !scalar {
		e.lvlT = make([]uint64, e.groups*groupCols*levels)
	}
	return e, nil
}

// fill copies packed vectors into dst's column-grouped layout.
func (e *Engine) fill(dst []uint64, vecs [][]uint64, what string) error {
	n := len(vecs)
	for i, v := range vecs {
		if len(v) != e.words {
			return fmt.Errorf("encslice: %s vector %d has %d words, want %d", what, i, len(v), e.words)
		}
		for w, word := range v {
			dst[wordAt(w, n)+i*groupCols] = word
		}
	}
	return nil
}

// wordAt is the index of word w of vector 0 in an n-vector column-grouped
// memory; word w of vector v follows at v·groupCols past it.
func wordAt(w, n int) int {
	return w/groupCols*n*groupCols + w%groupCols
}

// group returns the rows of column group g of an n-vector memory: n rows
// of groupCols words, row v holding vector v's words of the group.
func group(mem []uint64, g, n int) []uint64 {
	return mem[g*n*groupCols : (g+1)*n*groupCols]
}

// cols returns how many of group g's columns hold dimensions.
func (e *Engine) cols(g int) int {
	return min(groupCols, e.words-g*groupCols)
}

// colDims returns how many dimensions word column w holds: 64 in every
// column but the last.
func (e *Engine) colDims(w int) int {
	return min(64, e.dim-64*w)
}

// Dim returns the hypervector dimensionality D_hv.
func (e *Engine) Dim() int { return e.dim }

// Features returns the input dimensionality D_iv.
func (e *Engine) Features() int { return e.features }

// Levels returns the quantization level count ℓ_iv.
func (e *Engine) Levels() int { return e.levels }

// Word returns word w of base vector i, or of level vector i when level is
// set, read back from the engine's memory: bit b is dimension 64w+b, set
// for +1, and the bits past Dim are clear. It is the one way to read a
// vector back out of the engine, for reference loops and the hardware
// planes; no encode path calls it.
func (e *Engine) Word(level bool, i, w int) uint64 {
	mem, n := e.baseT, e.features
	if level {
		mem, n = e.lvlT, e.levels
	}
	if i < 0 || i >= n || w < 0 || w >= e.words || len(mem) == 0 {
		panic(fmt.Sprintf("encslice: no word %d of vector %d (level %v) in a %d-word engine", w, i, level, e.words))
	}
	word := mem[wordAt(w, n)+i*groupCols]
	if r := e.colDims(w); r < 64 {
		word &= 1<<r - 1
	}
	return word
}

// bound is the largest |numerator| an encoding can hold: F in level mode,
// F·(ℓ−1) in scalar mode.
func (e *Engine) bound() uint32 {
	if e.scalar {
		return uint32(e.features * (e.levels - 1))
	}
	return uint32(e.features)
}

// get takes a working set from the engine's pool; callers put it back.
func (e *Engine) get() *scratch {
	if s, ok := e.scratch.Get().(*scratch); ok {
		return s
	}
	return e.newScratch()
}

func (e *Engine) newScratch() *scratch {
	s := &scratch{v: make([]int32, e.dim)}
	if e.scalar {
		s.lists = make([]uint16, e.features*e.maxBits)
		s.off = make([]int, e.maxBits+1)
	}
	return s
}

// checkLvi panics unless lvi holds one level index below Levels per
// feature: the kernels index the level memory without bounds checks.
func (e *Engine) checkLvi(lvi []uint16) {
	if len(lvi) != e.features {
		panic(fmt.Sprintf("encslice: got %d level indices, engine has %d features", len(lvi), e.features))
	}
	var top uint16
	for _, lv := range lvi {
		top = max(top, lv)
	}
	if int(top) >= e.levels {
		panic(fmt.Sprintf("encslice: level index %d out of range [0,%d)", top, e.levels))
	}
}

// EncodeInto writes the encoding determined by the per-feature level
// indices into h (length Dim). Level indices must be < Levels; out-of-range
// indices panic. The result is exact: bit-identical to the reference Eq. 2b
// float loop, and equal to the exactly-evaluated Eq. 2a sum (a single
// float64 division of the integer numerator by ℓ−1) in scalar mode.
func (e *Engine) EncodeInto(lvi []uint16, h []float64) {
	e.checkLvi(lvi)
	if len(h) != e.dim {
		panic(fmt.Sprintf("encslice: EncodeInto buffer has dim %d, want %d", len(h), e.dim))
	}
	s := e.get()
	e.countsInto(lvi, s)
	if e.scalar {
		for j, n := range s.v {
			h[j] = float64(n) / e.denom
		}
	} else {
		for j, n := range s.v {
			h[j] = float64(n)
		}
	}
	e.scratch.Put(s)
}

// EncodeBatchInto encodes `rows` queries at once: lvi holds rows×Features
// level indices (row-major) and h receives rows×Dim encodings (row-major).
// In level mode the kernel walks the item memory group by group with the
// rows innermost, so each column group of every base vector is loaded
// once per batch instead of once per query. Scalar
// rows are encoded one at a time (their digit groups differ per row, so
// there is no shared pass to amortize).
func (e *Engine) EncodeBatchInto(lvi []uint16, rows int, h []float64) {
	if rows <= 0 {
		return
	}
	if len(lvi) != rows*e.features {
		panic(fmt.Sprintf("encslice: batch has %d level indices, want %d×%d", len(lvi), rows, e.features))
	}
	if len(h) != rows*e.dim {
		panic(fmt.Sprintf("encslice: batch buffer has %d values, want %d×%d", len(h), rows, e.dim))
	}
	if e.scalar {
		for r := 0; r < rows; r++ {
			e.EncodeInto(lvi[r*e.features:(r+1)*e.features], h[r*e.dim:(r+1)*e.dim])
		}
		return
	}
	for r := 0; r < rows; r++ {
		e.checkLvi(lvi[r*e.features : (r+1)*e.features])
	}
	F, L, dim := e.features, e.levels, e.dim
	pl := planesPool.Get().(*planes)
	var cnt [64]int32
	for g := 0; g < e.groups; g++ {
		bg, lg := group(e.baseT, g, F), group(e.lvlT, g, L)
		for r := 0; r < rows; r++ {
			kern.xor(pl, bg, lg, lvi[r*F:(r+1)*F], e.hi)
			for c := 0; c < e.cols(g); c++ {
				w := g*groupCols + c
				nd := e.colDims(w)
				pl.counts(c, &cnt, nd, e.hi)
				row := h[r*dim+64*w:]
				for b := 0; b < nd; b++ {
					row[b] = float64(int32(F) - 2*cnt[b])
				}
			}
		}
	}
	planesPool.Put(pl)
}

// EncodePackedInto fuses encode and quantize: it derives the −2…+1 query
// for the given scheme straight from the integer counts, never
// materializing the float encoding — the Predict hot path's form. It
// writes the query's lo plane into dst[:w] and its hi plane into
// dst[w:2w], w = ⌈Dim/64⌉ (the intscore.Planes layout), overwriting every
// word and leaving the bits past Dim clear. Output is bit-identical to
// encoding with EncodeInto and quantizing the float result with the
// corresponding quant scheme.
func (e *Engine) EncodePackedInto(lvi []uint16, scheme Scheme, dst []uint64) {
	e.checkLvi(lvi)
	if len(dst) != 2*e.words {
		panic(fmt.Sprintf("encslice: EncodePackedInto buffer has %d words, want %d", len(dst), 2*e.words))
	}
	if scheme == SchemeBipolar && !e.scalar {
		e.signInto(lvi, nil, dst[:e.words], dst[e.words:])
		return
	}
	s := e.get()
	e.encodePacked(lvi, scheme, dst, s)
	e.scratch.Put(s)
}

// encodePacked is EncodePackedInto on the working set s, for checked
// level indices and a buffer of 2·⌈Dim/64⌉ words.
func (e *Engine) encodePacked(lvi []uint16, scheme Scheme, dst []uint64, s *scratch) {
	lo, hi := dst[:e.words], dst[e.words:]
	if scheme == SchemeBipolar && !e.scalar {
		e.signInto(lvi, nil, lo, hi)
		return
	}
	e.countsInto(lvi, s)
	quantizeInts(s.v, e.bound(), scheme, lo, hi)
}

// EncodeQuantizedBatchInto is EncodePackedInto over `rows` queries with
// the planes widened: lvi holds rows×Features level indices (row-major)
// and h receives rows×Dim symbols (row-major), each row the −2…+1 symbols,
// as float64, of the planes EncodePackedInto writes for it — bit-identical
// to encoding with EncodeBatchInto and quantizing every row with the
// corresponding quant scheme. Its working set is allocated by the call and
// dropped with it, never taken from the engine's pool. It panics on
// SchemeNone.
func (e *Engine) EncodeQuantizedBatchInto(lvi []uint16, rows int, scheme Scheme, h []float64) {
	if scheme == SchemeNone {
		panic("encslice: EncodeQuantizedBatchInto needs a quantization scheme, got SchemeNone")
	}
	if rows <= 0 {
		return
	}
	if len(lvi) != rows*e.features {
		panic(fmt.Sprintf("encslice: batch has %d level indices, want %d×%d", len(lvi), rows, e.features))
	}
	if len(h) != rows*e.dim {
		panic(fmt.Sprintf("encslice: batch buffer has %d values, want %d×%d", len(h), rows, e.dim))
	}
	F, dim := e.features, e.dim
	s := e.newScratch()
	planes := make([]uint64, 2*e.words)
	lo, hi := planes[:e.words], planes[e.words:]
	for r := 0; r < rows; r++ {
		row := lvi[r*F : (r+1)*F]
		e.checkLvi(row)
		e.encodePacked(row, scheme, planes, s)
		out := h[r*dim : (r+1)*dim]
		for j := range out {
			out[j] = float64(int(lo[j/64]>>(j%64)&1) - 2*int(hi[j/64]>>(j%64)&1))
		}
	}
}

// signInto writes the level-mode bipolar query straight off the counters,
// never forming a count: per word column the comparator yields 64 sign
// bits. A dimension is −1 when its mismatch count m is at least ⌊F/2⌋+1,
// that is when 2·(F−m) − F < 0. With kept nil, engine dimension i is
// dimension i of the planes: every lo bit within Dim is set, and hi is the
// negative lanes. Otherwise engine dimension i is dimension kept[i]: a
// negative lane sets its hi bit, and lo is the caller's.
func (e *Engine) signInto(lvi []uint16, kept []uint32, lo, hi []uint64) {
	F, L := e.features, e.levels
	t := uint(F/2 + 1)
	// kept is ascending, so the negative lanes reach hi in ascending
	// position order: the bits bound for one hi word gather in acc, which
	// is stored once when the position leaves that word.
	cur, acc := uint(0), uint64(0)
	pl := planesPool.Get().(*planes)
	for g := 0; g < e.groups; g++ {
		kern.xor(pl, group(e.baseT, g, F), group(e.lvlT, g, L), lvi, e.hi)
		for c := 0; c < e.cols(g); c++ {
			w := g*groupCols + c
			valid := ^uint64(0)
			if r := e.colDims(w); r < 64 {
				valid = 1<<r - 1
			}
			neg := pl.atLeast(c, t, e.hi) & valid
			if kept == nil {
				lo[w], hi[w] = valid, neg
				continue
			}
			kw := (*[64]uint32)(kept[64*w:])
			for ; neg != 0; neg &= neg - 1 {
				pos := uint(kw[bits.TrailingZeros64(neg)&63])
				if pos/64 != cur {
					hi[cur] |= acc
					cur, acc = pos/64, 0
				}
				acc |= 1 << (pos % 64)
			}
		}
	}
	if kept != nil {
		hi[cur] |= acc
	}
	planesPool.Put(pl)
}

// Restricted is a level engine confined to a fixed set of kept dimensions:
// its base and level memory hold only those dimensions' words,
// so a query costs ⌈kept/64⌉ word columns instead of ⌈Dim/64⌉. It emits
// the masked bipolar query — sign at the kept dimensions, zero elsewhere —
// and, like Engine, is immutable and safe for concurrent use.
type Restricted struct {
	eng  *Engine  // level engine over the kept dimensions, in order
	kept []uint32 // kept[i] is the full-vector position of eng's dimension i
	keep []uint64 // the kept set as ⌈Dim/64⌉ words, the query's lo plane
}

// Restrict gathers the words of the dimensions keep marks true (keep has
// length Dim) out of a level engine's memory into a Restricted engine.
// Scalar engines have no restricted form: their sign is a weighted sum over
// digit groups, not one threshold per dimension.
func (e *Engine) Restrict(keep []bool) (*Restricted, error) {
	if e.scalar {
		return nil, fmt.Errorf("encslice: Restrict needs a level engine")
	}
	if len(keep) != e.dim {
		return nil, fmt.Errorf("encslice: keep set has %d dimensions, engine has %d", len(keep), e.dim)
	}
	var kept []uint32
	words := make([]uint64, e.words)
	for j, k := range keep {
		if k {
			kept = append(kept, uint32(j))
			words[j/64] |= 1 << (j % 64)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("encslice: keep set is empty")
	}
	r, err := newEngine(len(kept), e.features, e.levels, false)
	if err != nil {
		return nil, err
	}
	gatherDims(r.baseT, e.baseT, e.features, kept)
	gatherDims(r.lvlT, e.lvlT, e.levels, kept)
	// Pad kept to whole word columns by repeating its last position, so
	// signInto can view each column's 64 positions as an array.
	for len(kept)%64 != 0 {
		kept = append(kept, kept[len(kept)-1])
	}
	return &Restricted{eng: r, kept: kept, keep: words}, nil
}

// gatherDims copies the bits of dimensions kept out of the n-vector
// column-grouped memory src into dst, where kept[i] becomes dimension i.
func gatherDims(dst, src []uint64, n int, kept []uint32) {
	for v := 0; v < n; v++ {
		d, s := dst[v*groupCols:], src[v*groupCols:]
		for i, j := range kept {
			d[wordAt(i/64, n)] |= s[wordAt(int(j)/64, n)] >> (j % 64) & 1 << (i % 64)
		}
	}
}

// EncodeBipolarInto writes the masked bipolar query for the level indices
// into dst in EncodePackedInto's plane layout over the unrestricted
// engine's Dim: at every kept dimension the symbol EncodePackedInto(lvi,
// SchemeBipolar, …) of the unrestricted engine writes there, and 0 at
// every other dimension.
func (r *Restricted) EncodeBipolarInto(lvi []uint16, dst []uint64) {
	r.eng.checkLvi(lvi)
	w := len(r.keep)
	if len(dst) != 2*w {
		panic(fmt.Sprintf("encslice: EncodeBipolarInto buffer has %d words, want %d", len(dst), 2*w))
	}
	copy(dst, r.keep)
	clear(dst[w:])
	r.eng.signInto(lvi, r.kept, nil, dst[w:])
}

// countsInto fills s.v with the per-dimension integer numerators:
// 2·cnt − F in level mode, Σ_k lv_k·(±1) in scalar mode.
func (e *Engine) countsInto(lvi []uint16, s *scratch) {
	if e.scalar {
		e.countsScalar(lvi, s)
	} else {
		e.countsLevel(lvi, s.v)
	}
}

// countsLevel fills v with F − 2·m per dimension, m the dimension's count
// of mismatching planes (2·(F−m) − F, the XNOR form of Eq. 2b).
func (e *Engine) countsLevel(lvi []uint16, v []int32) {
	F, L := e.features, e.levels
	pl := planesPool.Get().(*planes)
	var cnt [64]int32
	for g := 0; g < e.groups; g++ {
		kern.xor(pl, group(e.baseT, g, F), group(e.lvlT, g, L), lvi, e.hi)
		for c := 0; c < e.cols(g); c++ {
			w := g*groupCols + c
			nd := e.colDims(w)
			pl.counts(c, &cnt, nd, e.hi)
			for b, n := range cnt[:nd] {
				v[64*w+b] = int32(F) - 2*n
			}
		}
	}
	planesPool.Put(pl)
}

func (e *Engine) countsScalar(lvi []uint16, s *scratch) {
	F, mb := e.features, e.maxBits
	// Partition features into digit groups once per query (shared by every
	// word column): group p lists the features whose level index has bit p
	// set. Level-0 features have no set bits and — like the reference
	// loop's `if f == 0 continue` — cost nothing anywhere below.
	var m [maxLevelBits]int
	for _, lv := range lvi {
		for p := 0; p < mb; p++ {
			m[p] += int(lv >> p & 1)
		}
	}
	s.off[0] = 0
	var cursor [maxLevelBits]int
	for p := 0; p < mb; p++ {
		cursor[p] = s.off[p]
		s.off[p+1] = s.off[p] + m[p]
	}
	for k, lv := range lvi {
		for p := 0; p < mb; p++ {
			if lv>>p&1 == 1 {
				s.lists[cursor[p]] = uint16(k)
				cursor[p]++
			}
		}
	}
	clear(s.v)
	pl := planesPool.Get().(*planes)
	var cnt [64]int32
	for g := 0; g < e.groups; g++ {
		bg := group(e.baseT, g, F)
		for p := 0; p < mb; p++ {
			list := s.lists[s.off[p]:s.off[p+1]]
			if len(list) == 0 {
				continue
			}
			kern.gather(pl, bg, list, e.hi)
			mp := int32(len(list))
			for c := 0; c < e.cols(g); c++ {
				w := g*groupCols + c
				v := s.v[64*w : 64*w+e.colDims(w)]
				pl.counts(c, &cnt, len(v), e.hi)
				for b := range v {
					v[b] += (2*cnt[b] - mp) << p
				}
			}
		}
	}
	planesPool.Put(pl)
}

// maxLevelBits bounds maxBits: levels ≤ 2^16 ⇒ level indices have ≤ 16 bits.
const maxLevelBits = 16

// quantizeInts writes the scheme's −2…+1 symbol of every numerator in v
// into the planes lo and hi (⌈len(v)/64⌉ words each), a word at a time,
// overwriting every word and leaving the bits past len(v) clear. Every
// |v[j]| is at most bound. It mirrors quant.QuantizeInto on the float
// encoding exactly: the numerator-to-float map is strictly monotone and
// zero-preserving, so the sign tests and the cut points, ties by index,
// coincide.
func quantizeInts(v []int32, bound uint32, scheme Scheme, lo, hi []uint64) {
	switch scheme {
	case SchemeBipolar:
		for w := range lo {
			var l, h uint64
			for j, x := range v[64*w : min(64*w+64, len(v))] {
				b := uint(j) & 63 // j < 64: no shift-range check
				l |= 1 << b
				h |= uint64(uint32(x)>>31) << b
			}
			lo[w], hi[w] = l, h
		}
	case SchemeTernary, SchemeBiasedTernary:
		frac := 1.0 / 3.0
		if scheme == SchemeBiasedTernary {
			frac = 0.5
		}
		// Same expression as quant's ternary zero count, so the cut takes
		// the same dimensions bit for bit.
		k := keyer{abs: true}
		c := cutAt(v, int(frac*float64(len(v))), k, bound)
		lim := max(c.t, 1) // a zero numerator always quantizes to 0
		for w := range lo {
			var l, h uint64
			for j, x := range v[64*w : min(64*w+64, len(v))] {
				b := uint(j) & 63 // j < 64: no shift-range check
				key := k.of(x)
				keep := bit(key >= lim)
				if key == c.t && c.m > 0 {
					c.m--
					keep = 0
				}
				l |= keep << b
				h |= keep & uint64(uint32(x)>>31) << b
			}
			lo[w], hi[w] = l, h
		}
	case SchemeTwoBit:
		// The element at position r of the (v, index) order gets symbol
		// ⌊4r/D⌋ − 2, so the i-th cut takes the ⌈i·D/4⌉ first. Symbol
		// s − 2 for s = 0…3 is lo = s&1, hi = s < 2.
		k := keyer{base: -bound}
		n := len(v)
		var cuts [3]cut
		for i := range cuts {
			cuts[i] = cutAt(v, ((i+1)*n+3)/4, k, 2*bound)
		}
		for w := range lo {
			var l, h uint64
			for j, x := range v[64*w : min(64*w+64, len(v))] {
				b := uint(j) & 63 // j < 64: no shift-range check
				key, s := k.of(x), uint64(0)
				for i := range cuts {
					s += bit(!cuts[i].take(key))
				}
				l |= s & 1 << b
				h |= bit(s < 2) << b
			}
			lo[w], hi[w] = l, h
		}
	default:
		panic(fmt.Sprintf("encslice: unknown quantization scheme %d", scheme))
	}
}

// bit is 1 for true and 0 for false, without a branch.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// keyer maps a numerator to its select key: |x| when abs, else x − base
// (base = −bound, so every key is in [0, 2·bound]), both as uint32.
type keyer struct {
	abs  bool
	base uint32
}

func (k keyer) of(x int32) uint32 {
	if k.abs {
		m := x >> 31 // branch-free |x|: signs are data, not predictable
		x = x ^ m - m
	}
	return uint32(x) - k.base
}

// cut is one cut point of the order (key, index): the c first numerators
// of that order are every key below t and the first m keys equal to t, in
// index order.
type cut struct {
	t uint32
	m int
}

// take reports whether the next numerator in index order, whose key is k,
// falls below the cut, consuming one of the cut's ties when k == t.
func (c *cut) take(k uint32) bool {
	if k == c.t && c.m > 0 {
		c.m--
		return true
	}
	return k < c.t
}

// histBits is the digit width of cutAt's select: a level-mode key range
// (at most 2F + 1 keys, 1 235 at paper geometry) fits one digit, so the
// select is one counting histogram.
const histBits = 12

// cutAt returns the cut that takes the c first numerators of v in the
// (key, index) order, for keys at most top. It is an exact select: a
// counting histogram over the keys when top fits histBits, otherwise a
// most-significant-digit radix select, histBits a pass, each pass
// counting only the keys that match the digits decided so far. c ≤ 0
// takes nothing.
func cutAt(v []int32, c int, k keyer, top uint32) cut {
	if c <= 0 {
		return cut{}
	}
	shift := 0
	for top>>shift >= 1<<histBits {
		shift += histBits
	}
	const mask = 1<<histBits - 1
	var count [1 << histBits]int32
	var t uint32 // the key bits decided so far
	need := c    // how many of the keys matching t's decided bits to take
	for first := true; shift >= 0; first, shift = false, shift-histBits {
		sh := uint(shift) & 31
		clear(count[:min(top>>sh, mask)+1])
		if first {
			for _, x := range v {
				count[k.of(x)>>sh&mask]++
			}
		} else {
			above := ^uint32(0) << (sh + histBits) // the digits decided so far
			for _, x := range v {
				if key := k.of(x); key&above == t {
					count[key>>sh&mask]++
				}
			}
		}
		d := uint32(0)
		for ; int(count[d]) < need; d++ {
			need -= int(count[d])
		}
		t |= d << shift
	}
	return cut{t: t, m: need}
}
