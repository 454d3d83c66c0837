// Package intscore scores packed small-alphabet queries against class
// hypervectors in the integer domain — the associative-memory search of
// Eq. 4 without ever expanding the query back to float64.
//
// Prive-HD's offloaded queries are quantized onto the −2…+1 alphabet
// (§III-B2/III-C), yet a naive server pays float bandwidth anyway: expand
// to []float64, then a float64 dot per class. This package removes both
// costs. A quantized query has one form from the edge's encoder to these
// kernels, Planes: the lo and hi bits of every symbol's 2-bit two's
// complement (s = lo − 2·hi). ScoresPackedInto and PartialsPackedInto
// remain as adapters for callers holding one int8 per dimension. The class
// prototypes a model was trained from are sums of quantized (integer)
// encodings, and a DP release rounds its noised classes to integers; any
// other model (unquantized scalar-encoded or online-trained, whose classes
// are sums of fractions) is served in fixed point as round(2^k·C), with one
// k for the whole model (see Fixed), and the scale cancels in h·C/‖C‖. So
// every engine scores integer classes: a pure integer dot per class,
// finished by one float division per class by its ℓ2 norm.
//
// Prepare picks the layout, and with it the kernel, from the class
// magnitudes alone. When every coordinate fits int8 — every integer model
// does, since bundling keeps |v| < 32 — each class is stored as
// B = bits.Len(max|v|)+1 two's-complement bit-planes, and the kernel sums
// popcnt(lo ∧ C_b) − 2·popcnt(hi ∧ C_b) at each plane's weight (2^b, and
// −2^(B−1) for the top plane). Its cost does not depend on the query's
// zero fraction. The bit-plane kernel is picked once at init: on amd64
// CPUs with AVX-512 VPOPCNTDQ (and OS-saved ZMM state) an assembly one
// that reads eight words of the query's planes at a time and keeps each
// class plane's popcounts in ZMM registers, and otherwise, as under the
// purego tag and off amd64, a pure-Go loop of bits.OnesCount64. Wider
// classes (fixed-point ones are int32) are laid out as cache-blocked int16
// or int32 panels of 256 dimensions, with two kernels written once and
// instantiated per width: a dense 4-class-wide int64 multiply-accumulate
// for zero-poor (bipolar) queries, which expands one block of the planes
// to int8 symbols at a time, and a multiplication-free gather for
// zero-rich ones (ternary, biased ternary, 2-bit, masked), which walks the
// set bits of lo∧¬hi, lo∧hi and hi∧¬lo.
// Each query takes whichever suits it. The bit-plane kernel holds at most
// eight planes, one per bit of int8, and its work grows with B, so these
// widths keep the panels. Integer sums are exact, so no choice ever
// changes a score bit.
//
// # Fidelity to the float path
//
// An integer model's scores are bit-identical to hdc.Model.ScoresInto on
// the float64 expansion of the query: every query·class product is an
// integer, integer-valued float64 partial sums are exact below 2^53, and
// the final division uses the identical norm value. Integer classes keep
// scale 1 while they lie within one exactness bound (|v| < 2^26,
// Σv² < 2^53 and 2·‖C‖₁ < 2^53, which no real model approaches); tests
// assert ≤1e-9 to keep that contract robust to future reassociation. A
// fixed-point model's scores carry only the rounding of its classes, at
// most √D/2 away from 2^k·C, so class l's score on query q stays within
// ‖q‖₂·√D/‖round(2^k·C_l)‖ of the float path's, and labels agree whenever
// the float top-2 margin exceeds both classes' bounds.
//
// Engines are immutable once prepared and safe for concurrent use; per-call
// accumulators come from an internal sync.Pool, so the scoring hot path
// allocates nothing.
package intscore

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"privehd/internal/vecmath"
)

// MinSymbol and MaxSymbol bound the packed-query alphabet: −2…+1 covers
// every quantization scheme in the quant package (bipolar, ternary, biased
// ternary and 2-bit), and is exactly what two bit-planes can spell. The
// offload protocol advertises the same bounds.
const (
	MinSymbol int8 = -2
	MaxSymbol int8 = 1
)

// blockDim is the dimensions-per-panel block size: with int16 panels and a
// few dozen classes, one block panel plus the query block stays within a
// typical 32 KiB L1 data cache. It must not exceed 256: the gather kernel
// indexes panel rows with uint8 (enforced by the constant conversion below).
// It is a multiple of 64, so a block is a whole number of plane words.
const blockDim = 256

const _ = uint8(blockDim - 1) // compile-time guard for uint8 indices

// exactLimit is 2^53, below which integer-valued float64 sums are exact.
// Every engine's classes have Σv² and worst-case |accumulator| (2·‖C‖₁)
// below it and coordinates below maxAbsVal, so both whole-model scores and
// cross-shard partial sums never silently lose bits.
const (
	exactLimit = 1 << 53
	maxAbsVal  = 1 << 26
)

// Planes is a quantized query in the one form the serving path carries
// from the edge's encoder to the scoring kernels: Bits holds Words(Dim)
// lo-plane words, then Words(Dim) hi-plane words; bit i of word w is
// dimension 64w+i, whose symbol is lo − 2·hi, and the bits past Dim are
// zero. Two bits spell only −2…+1, so no other symbol can be carried.
type Planes struct {
	Dim  int
	Bits []uint64
}

// Words returns the words one plane of a dim-dimensional query takes.
func Words(dim int) int { return (dim + 63) / 64 }

// NewPlanes returns an all-zero query of dim dimensions.
func NewPlanes(dim int) Planes { return Planes{Dim: dim, Bits: make([]uint64, 2*Words(dim))} }

// Lo returns the lo plane: the set bits are the odd symbols, +1 and −1.
func (p Planes) Lo() []uint64 { n := Words(p.Dim); return p.Bits[:n:n] }

// Hi returns the hi plane: the set bits are the negative symbols, −1 and −2.
func (p Planes) Hi() []uint64 { n := Words(p.Dim); return p.Bits[n : 2*n : 2*n] }

// Symbol returns dimension i's symbol.
func (p Planes) Symbol(i int) int8 {
	n := Words(p.Dim)
	return int8(p.Bits[i/64]>>(i%64)&1) - 2*int8(p.Bits[n+i/64]>>(i%64)&1)
}

// And zeroes every dimension whose bit in keep (Words(Dim) words) is
// clear: a query mask applied with one AND per word and plane.
func (p Planes) And(keep []uint64) {
	lo, hi := p.Lo(), p.Hi()
	for w, k := range keep[:len(lo)] {
		lo[w] &= k
		hi[w] &= k
	}
}

// Split returns q's planes in a new allocation; see SplitInto.
func Split(q []int8) Planes {
	p := NewPlanes(len(q))
	SplitInto(q, p)
	return p
}

// SplitInto overwrites p (Dim len(q)) with the planes of q, one int8 per
// dimension: the one int8→planes conversion, behind every int8 adapter.
// Only a symbol's two low bits are read, so callers taking int8 symbols
// from outside validate them first.
func SplitInto(q []int8, p Planes) {
	if p.Dim != len(q) {
		panic(fmt.Sprintf("intscore: %d symbols split into planes of dim %d", len(q), p.Dim))
	}
	lo, hi := p.Lo(), p.Hi()
	full := len(q) / 64
	for w := 0; w < full; w++ {
		var l, h uint64
		for g := 0; g < 8; g++ {
			s := q[64*w+8*g : 64*w+8*g+8 : 64*w+8*g+8]
			x := uint64(uint8(s[0])) | uint64(uint8(s[1]))<<8 | uint64(uint8(s[2]))<<16 | uint64(uint8(s[3]))<<24 |
				uint64(uint8(s[4]))<<32 | uint64(uint8(s[5]))<<40 | uint64(uint8(s[6]))<<48 | uint64(uint8(s[7]))<<56
			l |= bitOfBytes(x, 0) << (8 * g)
			h |= bitOfBytes(x, 1) << (8 * g)
		}
		lo[w], hi[w] = l, h
	}
	if full < len(lo) {
		var l, h uint64
		for i, s := range q[64*full:] {
			l |= uint64(s&1) << i
			h |= uint64(s>>1&1) << i
		}
		lo[full], hi[full] = l, h
	}
}

// element is a wide class panel's integer type.
type element interface{ ~int16 | ~int32 }

// kernels adds every class's integer dot with a query into acc (one slot
// per class). bitPlanes serves int8-width models and panels, one
// instantiation per element width, the wider ones; the engine holds the
// one Prepare picked.
type kernels interface {
	accumulate(q Planes, acc []int64, s *engineScratch)
}

// panels holds the classes block-major then row-major:
// p[(b·classes+l)·blockDim : …+blockDim] is the dimensions
// [b·blockDim, (b+1)·blockDim) of class l. The tail block is zero-padded.
type panels[T element] []T

// Engine scores quantized queries against one model's prepared class
// planes. It is immutable after Prepare and safe for concurrent use.
type Engine struct {
	dim     int
	classes int
	bits    int // width the coordinates fit, see PlaneBits

	// norms[l] is ‖C_l‖₂, computed exactly as the float scoring path
	// computes it; 0 marks an empty class, scored −Inf.
	norms []float64

	// normsSq[l] is Σ C_l[i]², exact by Prepare's bound — what sharded
	// partial scoring needs: exact integer sums are associative, so a
	// coordinator adding per-slice normsSq (and per-slice int64 dots)
	// across dimension shards reconstructs the whole-model score
	// bit-for-bit.
	normsSq []float64

	planes kernels

	scratch sync.Pool
}

// engineScratch is one call's pooled working set.
type engineScratch struct {
	acc []int64
	// q holds an int8 adapter's query once split into planes.
	q Planes
	// sym is one block of the query expanded to symbols, on the dense
	// path.
	sym [blockDim]int8
	// pos/neg/neg2 are block-local index lists of the query's +1/−1/−2
	// symbols, rebuilt per block on the gather path. Elements are uint8 —
	// a block index always fits — so the gather kernel can prove every
	// row access in bounds against *[blockDim]-array rows.
	pos, neg, neg2 [blockDim]uint8
}

// Prepare derives an engine from a model's class prototypes, scoring their
// serving form (see Fixed), or returns nil if some coordinate is not
// finite. The class slices are read once and copied into the blocked
// layout; callers must not mutate them afterwards without re-preparing.
func Prepare(classes [][]float64) *Engine {
	classes = Fixed(classes)
	if classes == nil {
		return nil
	}
	e := &Engine{
		classes: len(classes),
		norms:   make([]float64, len(classes)),
		normsSq: make([]float64, len(classes)),
	}
	if len(classes) == 0 {
		e.planes = bitPlanes{}
		return e
	}
	e.dim = len(classes[0])
	var maxAbs float64
	for l, c := range classes {
		for _, v := range c {
			maxAbs = max(maxAbs, math.Abs(v))
		}
		e.normsSq[l] = vecmath.Dot(c, c)
		e.norms[l] = vecmath.Norm2(c)
	}
	switch {
	case maxAbs <= math.MaxInt8:
		e.bits, e.planes = 8, newBitPlanes(classes, bits.Len(uint(maxAbs))+1)
	case maxAbs <= math.MaxInt16:
		e.bits, e.planes = 16, newPanels[int16](classes)
	default:
		e.bits, e.planes = 32, newPanels[int32](classes)
	}
	return e
}

// Fixed returns the integer classes an engine over classes scores: classes
// itself when every coordinate is an integer within the exactness bound
// (scale 1), and otherwise a copy rounded to round(2^k·C), where k is the
// largest exponent for which 2^k·C stays within the bound with one bit to
// spare (|v| < 2^25, Σv² < 2^52, 2·‖C‖₁ < 2^52), so rounding cannot push
// it past. It returns nil if some coordinate is not finite. k depends on
// the whole class set, so a dimension or class slice of the result is
// integer within the bound and keeps scale 1: shards cut from it agree on
// k by construction, which shards each scaling their own slice would not.
func Fixed(classes [][]float64) [][]float64 {
	var maxAbs float64
	exact := true
	for l, c := range classes {
		if len(c) != len(classes[0]) {
			panic(fmt.Sprintf("intscore: class %d has dim %d, class 0 has %d", l, len(c), len(classes[0])))
		}
		var norm1, normSq float64
		for _, v := range c {
			exact = exact && v == math.Trunc(v)
			maxAbs = max(maxAbs, math.Abs(v)) // NaN or +Inf once non-finite
			norm1 += math.Abs(v)
			normSq += v * v
		}
		// 2·‖C‖₁ bounds |Σ q·C| for q in −2…+1.
		exact = exact && 2*norm1 < exactLimit && normSq < exactLimit
	}
	if exact && maxAbs < maxAbsVal {
		return classes
	}
	if math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return nil
	}
	// maxAbs > 0, since all-zero classes are exact, and with
	// maxAbs < 2^e, 2^k·maxAbs < 2^25 holds for every k ≤ 25−e.
	_, e := math.Frexp(maxAbs)
	k := 25 - e
	for _, c := range classes {
		var sq, abs float64
		for _, v := range c {
			x := math.Ldexp(v, k)
			sq += x * x
			abs += math.Abs(x)
		}
		for sq >= exactLimit/2 || 2*abs >= exactLimit/2 {
			k--
			sq, abs = sq/4, abs/2
		}
	}
	out := make([][]float64, len(classes))
	for l, c := range classes {
		out[l] = make([]float64, len(c))
		for i, v := range c {
			out[l][i] = math.Round(math.Ldexp(v, k))
		}
	}
	return out
}

// newPanels copies classes, whose coordinates all fit T, into the blocked
// layout.
func newPanels[T element](classes [][]float64) panels[T] {
	dim := len(classes[0])
	blocks := (dim + blockDim - 1) / blockDim
	p := make(panels[T], blocks*len(classes)*blockDim)
	for l, c := range classes {
		for i, v := range c {
			p[(i/blockDim*len(classes)+l)*blockDim+i%blockDim] = T(v)
		}
	}
	return p
}

// Dim returns the engine's hypervector dimensionality.
func (e *Engine) Dim() int { return e.dim }

// NumClasses returns the number of classes the engine scores.
func (e *Engine) NumClasses() int { return e.classes }

// PlaneBits returns the width the class coordinates fit: 8 means they fit
// int8 and are scored as at most 8 bit-planes, 16 and 32 mean int16 and
// int32 panels. It is 0 for an engine over no classes.
func (e *Engine) PlaneBits() int { return e.bits }

func (e *Engine) getScratch() *engineScratch {
	if s, ok := e.scratch.Get().(*engineScratch); ok {
		return s
	}
	return &engineScratch{
		acc: make([]int64, e.classes),
		q:   NewPlanes(e.dim),
	}
}

// ScoresInto writes the norm-adjusted similarity of the query against
// every class into out (length NumClasses) and returns out — the
// integer-domain twin of hdc.Model.ScoresInto on the query's float64
// expansion, with zero heap allocations. Empty classes score −Inf so they
// never win the argmax.
func (e *Engine) ScoresInto(q Planes, out []float64) []float64 {
	e.check(q.Dim, len(q.Bits), len(out))
	s := e.getScratch()
	acc := e.partialsInto(q, s.acc, s)
	for l, n := range e.norms {
		if n == 0 {
			out[l] = math.Inf(-1)
			continue
		}
		out[l] = float64(acc[l]) / n
	}
	e.scratch.Put(s)
	return out
}

// ScoresPackedInto is ScoresInto for a query held one symbol per byte: it
// splits q into pooled planes and scores those. Symbols must already be
// within the alphabet; the engine does not re-validate them.
func (e *Engine) ScoresPackedInto(q []int8, out []float64) []float64 {
	s := e.getScratch()
	defer e.scratch.Put(s)
	SplitInto(q, s.q)
	return e.ScoresInto(s.q, out)
}

// check panics unless a query of dim dimensions in words plane words and
// an out buffer of n slots fit the engine.
func (e *Engine) check(dim, words, n int) {
	if dim != e.dim || words != 2*Words(e.dim) || n != e.classes {
		panic(fmt.Sprintf("intscore: query of dim %d in %d words, %d output slots; engine has dim %d, %d classes",
			dim, words, n, e.dim, e.classes))
	}
}

// PartialCapable reports whether the engine can answer sharded partial-
// score requests: every engine Prepare returns can, since its integer
// partial sums and Σv² are exact. It is nil-safe, and false on nil.
func (e *Engine) PartialCapable() bool { return e != nil }

// NormsSq returns the per-class Σv² slice. The returned slice is the
// engine's backing storage: read-only.
func (e *Engine) NormsSq() []float64 { return e.normsSq }

// PartialsInto writes the raw integer dot ⟨q, C_l⟩ for every class into
// out (length NumClasses) and returns out — the sharded-serving primitive:
// a replica holding a dimension slice of the model scores its slice of the
// query, and the coordinator sums the int64 partials across shards
// (exactly) before the single norm division.
func (e *Engine) PartialsInto(q Planes, out []int64) []int64 {
	e.check(q.Dim, len(q.Bits), len(out))
	s := e.getScratch()
	e.partialsInto(q, out, s)
	e.scratch.Put(s)
	return out
}

// PartialsPackedInto is PartialsInto for a query held one symbol per byte,
// split into pooled planes like ScoresPackedInto's.
func (e *Engine) PartialsPackedInto(q []int8, out []int64) []int64 {
	s := e.getScratch()
	defer e.scratch.Put(s)
	SplitInto(q, s.q)
	return e.PartialsInto(s.q, out)
}

// partialsInto zeroes out, accumulates q's class dots into it and
// returns it.
func (e *Engine) partialsInto(q Planes, out []int64, s *engineScratch) []int64 {
	clear(out)
	e.planes.accumulate(q, out, s)
	return out
}

// bitPlanes holds int8-width classes as b two's-complement bit-planes
// each, class-major, then plane, then word: p[(l·b+j)·words+w] carries
// bit j of class l's dimensions [64w, 64w+64), dimension 64w+i at bit i.
// The tail word is zero-padded. Plane j weighs 2^j, except the top one,
// which weighs −2^(b−1).
type bitPlanes struct {
	b, words int
	p        []uint64
}

// newBitPlanes copies classes, whose coordinates all fit b-bit two's
// complement, into b bit-planes per class. It packs eight coordinates'
// int8 bytes into one word, so each plane takes their bit j eight at a
// time, as SplitInto does with a query's symbols.
func newBitPlanes(classes [][]float64, b int) bitPlanes {
	words := Words(len(classes[0]))
	bp := bitPlanes{b: b, words: words, p: make([]uint64, len(classes)*b*words)}
	for l, c := range classes {
		row := bp.p[l*b*words : (l+1)*b*words]
		for i := 0; i < len(c); i += 8 {
			var x uint64
			for k, v := range c[i:min(i+8, len(c))] {
				x |= uint64(uint8(int8(v))) << (8 * k)
			}
			for j := 0; j < b; j++ {
				row[j*words+i/64] |= bitOfBytes(x, j) << (i % 64)
			}
		}
	}
	return bp
}

// accumulate is the bit-plane kernel — the paper's observation that a
// quantized query turns the associative search into bit logic
// (§III-B2 / Table I): AND, then popcount. With s = lo − 2·hi, each class
// plane c contributes popcnt(lo ∧ c) − 2·popcnt(hi ∧ c) at the plane's
// weight. The sums are exact integers, and the cost does not depend on
// the query's zero fraction. Each class row is one call of the kernel
// picked at init (see kern).
func (bp bitPlanes) accumulate(q Planes, acc []int64, _ *engineScratch) {
	stride := bp.b * bp.words
	for l := range acc {
		acc[l] += kern.rowDot(q.Bits, bp.p[l*stride:(l+1)*stride:(l+1)*stride], bp.b)
	}
}

// lsbGather packs the low bit of each of a word's 8 bytes into one byte,
// byte i to bit i.
const (
	lsbMask   = 0x0101010101010101
	lsbGather = 0x0102040810204080
)

// bitOfBytes gathers bit j of each of x's 8 bytes into one byte, byte i to
// bit i.
func bitOfBytes(x uint64, j int) uint64 { return (x >> j & lsbMask) * lsbGather >> 56 }

// spreadBits is bitOfBytes' inverse for the low byte b: byte i of the
// result is bit i of b. Replicating b isolates bit i in byte i, and adding
// 0x7F moves any set bit of a byte to its top bit, with no carry out.
func spreadBits(b uint64) uint64 {
	return ((b * lsbMask & 0x8040201008040201) + 0x7F7F7F7F7F7F7F7F) >> 7 & lsbMask
}

// accumulate picks the panel kernel for q by the non-zero count of its
// first 512 dimensions (lo ∨ hi marks them) — cut-point quantization
// scatters its zeros across positions, so a prefix is representative, and
// the choice only affects speed, never the (exact) result. Queries with an
// appreciable zero fraction — the paper's ternary, biased-ternary and
// 2-bit schemes — take the gather kernel that indexes only the non-zero
// symbols and needs no multiplies; zero-poor (bipolar) queries keep the
// dense multiply-accumulate kernel.
func (p panels[T]) accumulate(q Planes, acc []int64, s *engineScratch) {
	lo, hi := q.Lo(), q.Hi()
	nonzero := 0
	for w := range lo[:min(len(lo), 512/64)] {
		nonzero += bits.OnesCount64(lo[w] | hi[w])
	}
	if sample := min(q.Dim, 512); sample-nonzero >= sample/8 {
		p.gather(lo, hi, acc, s)
	} else {
		p.dense(q.Dim, lo, hi, acc, s)
	}
}

// dense walks the blocked panels so each query block is reused across all
// classes while it is hot in L1. Each block of the planes is expanded to
// int8 symbols in scratch once, then classes are consumed four at a time:
// each loaded (and sign-extended) query symbol feeds four multiply-
// accumulates, which is what pushes the kernel past the float path rather
// than merely matching it.
func (p panels[T]) dense(dim int, lo, hi []uint64, acc []int64, s *engineScratch) {
	const bd = blockDim
	for base, off := 0, 0; off < dim; base, off = base+len(acc)*bd, off+bd {
		n := min(bd, dim-off)
		for k := 0; k < bd; k += 8 {
			w, sh := (off+k)/64, uint(k%64)
			if w >= len(lo) {
				break
			}
			// A set hi bit spreads to the byte 0xFE (−2) and a set lo bit
			// to 0x01 (+1), so their OR spells each symbol's byte.
			x := spreadBits(lo[w]>>sh&0xFF) | spreadBits(hi[w]>>sh&0xFF)*0xFE
			d := (*[8]int8)(s.sym[k:])
			d[0], d[1], d[2], d[3] = int8(x), int8(x>>8), int8(x>>16), int8(x>>24)
			d[4], d[5], d[6], d[7] = int8(x>>32), int8(x>>40), int8(x>>48), int8(x>>56)
		}
		qb := s.sym[:n]
		k := 0
		for ; k+4 <= len(acc); k += 4 {
			at := base + k*bd
			s0, s1, s2, s3 := dot4(qb, p[at:at+n], p[at+bd:at+bd+n], p[at+2*bd:at+2*bd+n], p[at+3*bd:at+3*bd+n])
			acc[k] += s0
			acc[k+1] += s1
			acc[k+2] += s2
			acc[k+3] += s3
		}
		for ; k < len(acc); k++ {
			at := base + k*bd
			acc[k] += dot(qb, p[at:at+n])
		}
	}
}

// gather is the multiplication-free kernel for queries with an appreciable
// zero fraction: per block it lists the +1/−1/−2 dimensions once (shared
// by every class) by walking the set bits of lo∧¬hi, lo∧hi and hi∧¬lo,
// then each class row needs only indexed loads and adds —
// Σ s·p = Σ_{+1} p − Σ_{−1} p − 2·Σ_{−2} p — and zero symbols cost nothing
// at all. This is the software form of the paper's hardware observation
// that a quantized query turns the associative-memory search into adder
// trees (§III-B2 / Table I). Indices are uint8 against *[blockDim]-array
// rows (the layout zero-pads the tail block to a full panel), so every
// access is provably in bounds and the kernel carries no checks.
func (p panels[T]) gather(lo, hi []uint64, acc []int64, s *engineScratch) {
	const bd, wpb = blockDim, blockDim / 64
	for base, w := 0, 0; w < len(lo); base, w = base+len(acc)*bd, w+wpb {
		np, nn, n2 := 0, 0, 0
		for k := range lo[w:min(w+wpb, len(lo))] {
			l, h := lo[w+k], hi[w+k]
			np = setBits(&s.pos, np, l&^h, 64*k)
			nn = setBits(&s.neg, nn, l&h, 64*k)
			n2 = setBits(&s.neg2, n2, h&^l, 64*k)
		}
		pos, neg, neg2 := s.pos[:np], s.neg[:nn], s.neg2[:n2]
		k := 0
		for ; k+4 <= len(acc); k += 4 {
			at := base + k*bd
			r0 := (*[bd]T)(p[at:])
			r1 := (*[bd]T)(p[at+bd:])
			r2 := (*[bd]T)(p[at+2*bd:])
			r3 := (*[bd]T)(p[at+3*bd:])
			g0, g1, g2, g3 := gather4(pos, r0, r1, r2, r3)
			h0, h1, h2, h3 := gather4(neg, r0, r1, r2, r3)
			m0, m1, m2, m3 := gather4(neg2, r0, r1, r2, r3)
			acc[k] += g0 - h0 - 2*m0
			acc[k+1] += g1 - h1 - 2*m1
			acc[k+2] += g2 - h2 - 2*m2
			acc[k+3] += g3 - h3 - 2*m3
		}
		for ; k < len(acc); k++ {
			r := (*[bd]T)(p[base+k*bd:])
			acc[k] += gather1(pos, r) - gather1(neg, r) - 2*gather1(neg2, r)
		}
	}
}

// setBits appends base plus the index of every set bit of x to list, whose
// first n entries are taken, and returns the new length.
func setBits(list *[blockDim]uint8, n int, x uint64, base int) int {
	for ; x != 0; x &= x - 1 {
		list[n&(blockDim-1)] = uint8(base + bits.TrailingZeros64(x))
		n++
	}
	return n
}

// dot4 multiply-accumulates one query block against four class rows at
// once: one symbol load and sign-extension per four MACs, four independent
// accumulator chains. It returns its sums and stays out of line: adding
// through pointers, or inlined into the generic methods, the x4 kernels
// measured slower.
//
//go:noinline
func dot4[T element](q []int8, p0, p1, p2, p3 []T) (s0, s1, s2, s3 int64) {
	n := len(q)
	p0, p1, p2, p3 = p0[:n], p1[:n], p2[:n], p3[:n]
	for i := 0; i < n; i++ {
		s := int64(q[i])
		s0 += s * int64(p0[i])
		s1 += s * int64(p1[i])
		s2 += s * int64(p2[i])
		s3 += s * int64(p3[i])
	}
	return
}

// dot is the single-row kernel for the ≤3 leftover classes, 4-wide
// unrolled with independent accumulators.
func dot[T element](q []int8, p []T) int64 {
	n := len(q)
	p = p[:n]
	var a0, a1, a2, a3 int64
	i := 0
	for ; i+4 <= n; i += 4 {
		a0 += int64(q[i]) * int64(p[i])
		a1 += int64(q[i+1]) * int64(p[i+1])
		a2 += int64(q[i+2]) * int64(p[i+2])
		a3 += int64(q[i+3]) * int64(p[i+3])
	}
	for ; i < n; i++ {
		a0 += int64(q[i]) * int64(p[i])
	}
	return (a0 + a1) + (a2 + a3)
}

// gather4 sums four class rows at the given block-local indices: one index
// load feeds four adds — no multiplies, and no bounds checks, since a uint8
// index cannot escape a [blockDim]-array row. It stays out of line for the
// reason dot4 does.
//
//go:noinline
func gather4[T element](idx []uint8, p0, p1, p2, p3 *[blockDim]T) (s0, s1, s2, s3 int64) {
	for _, j := range idx {
		s0 += int64(p0[j])
		s1 += int64(p1[j])
		s2 += int64(p2[j])
		s3 += int64(p3[j])
	}
	return
}

// gather1 is the single-row leftover kernel.
func gather1[T element](idx []uint8, p *[blockDim]T) (s int64) {
	for _, j := range idx {
		s += int64(p[j])
	}
	return
}

// PackInto packs a quantized hypervector into the one-int8-per-dimension
// form, reusing buf's storage when it has capacity (pass nil to allocate).
// It reports false — and packs nothing — if any value is not an integer
// within [MinSymbol, MaxSymbol], i.e. the vector was not produced by one of
// the paper's quantization schemes and must stay full-precision.
func PackInto(h []float64, buf []int8) ([]int8, bool) {
	if cap(buf) < len(h) {
		buf = make([]int8, len(h))
	}
	buf = buf[:len(h)]
	for i, v := range h {
		iv := int(v)
		if float64(iv) != v || iv < int(MinSymbol) || iv > int(MaxSymbol) {
			return nil, false
		}
		buf[i] = int8(iv)
	}
	return buf, true
}
