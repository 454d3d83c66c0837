// Package intscore scores packed small-alphabet queries against class
// hypervectors in the integer domain — the associative-memory search of
// Eq. 4 without ever expanding the query back to float64.
//
// Prive-HD's offloaded queries are quantized onto the −2…+1 alphabet
// (§III-B2/III-C) and travel packed as one int8 per dimension, yet a naive
// server pays float bandwidth anyway: expand to []float64, then a float64
// dot per class. This package removes both costs. The class prototypes a
// model was trained from are sums of quantized (integer) encodings, and a
// DP release rounds its noised classes to integers, so every served class
// vector is integer-valued. Scoring a packed query is then a pure integer
// dot per class, finished by one float division per class with the same
// ℓ2 norm the float path divides by.
//
// Prepare picks the layout, and with it the kernel, from the class
// magnitudes alone. When every coordinate fits int8 — every served model
// does, since bundling keeps |v| < 32 — each class is stored as
// B = bits.Len(max|v|)+1 two's-complement bit-planes, and the kernel
// splits the query into the lo and hi bits of its 2-bit symbols
// (s = lo − 2·hi) and sums popcnt(lo ∧ C_b) − 2·popcnt(hi ∧ C_b) at each
// plane's weight (2^b, and −2^(B−1) for the top plane). Its cost does not
// depend on the query's zero fraction. It reads only a symbol's two low
// bits, so, as on every path, symbols outside the −2…+1 alphabet are
// undefined behaviour; servers validate them at the wire. Wider classes
// are laid out as cache-blocked int16 or int32 panels of 256 dimensions,
// with two kernels written once and instantiated per width: a dense
// 4-class-wide int64 multiply-accumulate for zero-poor (bipolar) queries,
// and a multiplication-free gather over the non-zero symbols for
// zero-rich ones (ternary, biased ternary, 2-bit, masked). Each query
// takes whichever suits it. The popcount kernel's cost grows with B, so
// at these widths it would lose to them. Integer sums are exact, so no
// choice ever changes a score bit.
//
// # Fidelity to the float path
//
// The result is bit-identical to hdc.Model.ScoresInto on the float64
// expansion of the query: every query·class product is an integer,
// integer-valued float64 partial sums are exact below 2^53, and the final
// division uses the identical norm value. Prepare therefore accepts a
// model only if every class is integer-valued within one exactness bound
// (|v| < 2^26, Σv² < 2^53 and 2·‖C‖₁ < 2^53, which no real model
// approaches) and returns nil otherwise. The only models left without an
// engine are unquantized scalar-encoded and online-trained ones, whose
// classes are sums of fractions; hdc.Model scores those on its own float
// path. The documented tolerance for callers is therefore 0; tests assert
// ≤1e-9 to keep the contract robust to future reassociation.
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
// ternary and 2-bit). The offload protocol advertises the same bounds.
const (
	MinSymbol int8 = -2
	MaxSymbol int8 = 1
)

// blockDim is the dimensions-per-panel block size: with int16 panels and a
// few dozen classes, one block panel plus the query block stays within a
// typical 32 KiB L1 data cache. It must not exceed 256: the gather kernel
// indexes panel rows with uint8 (enforced by the constant conversion below).
const blockDim = 256

const _ = uint8(blockDim - 1) // compile-time guard for uint8 indices

// exactLimit is 2^53, below which integer-valued float64 sums are exact.
// Prepare refuses any class whose Σv² or worst-case |accumulator| (2·‖C‖₁)
// could reach it, or with a coordinate of magnitude 2^26 or more, so both
// whole-model scores and cross-shard partial sums never silently lose bits.
const (
	exactLimit = 1 << 53
	maxAbsVal  = 1 << 26
)

// element is a wide class panel's integer type.
type element interface{ ~int16 | ~int32 }

// kernels adds every class's integer dot with a query into acc (one slot
// per class). bitPlanes serves int8-width models and panels, one
// instantiation per element width, the wider ones; the engine holds the
// one Prepare picked.
type kernels interface {
	accumulate(q []int8, acc []int64, s *engineScratch)
}

// panels holds the classes block-major then row-major:
// p[(b·classes+l)·blockDim : …+blockDim] is the dimensions
// [b·blockDim, (b+1)·blockDim) of class l. The tail block is zero-padded.
type panels[T element] []T

// Engine scores packed queries against one model's prepared class planes.
// It is immutable after Prepare and safe for concurrent use.
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
	acc    []int64
	scores []float64
	// lo/hi are the query's bit-planes, one word per 64 dimensions, on the
	// bit-plane path.
	lo, hi []uint64
	// pos/neg/neg2 are block-local index lists of the query's +1/−1/−2
	// symbols, rebuilt per block on the gather path. Elements are uint8 —
	// a block index always fits — so the gather kernel can prove every
	// row access in bounds against *[blockDim]-array rows.
	pos, neg, neg2 [blockDim]uint8
}

// Prepare derives an engine from a model's class prototypes, or returns nil
// if some class is not integer-valued within the exactness bound (see the
// package doc). The class slices are read once and copied into the blocked
// layout; callers must not mutate them afterwards without re-preparing.
func Prepare(classes [][]float64) *Engine {
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

	// First pass: norms, the exactness bound, and the narrowest width that
	// holds every class.
	var maxAbs float64
	for l, c := range classes {
		if len(c) != e.dim {
			panic(fmt.Sprintf("intscore: class %d has dim %d, class 0 has %d", l, len(c), e.dim))
		}
		var norm1, normSq float64
		for _, v := range c {
			a := math.Abs(v)
			if v != math.Trunc(v) || a >= maxAbsVal {
				return nil
			}
			maxAbs = max(maxAbs, a)
			norm1 += a
			normSq += v * v
		}
		// 2·‖C‖₁ bounds |Σ q·C| for q in −2…+1.
		if 2*norm1 >= exactLimit || normSq >= exactLimit {
			return nil
		}
		e.norms[l] = vecmath.Norm2(c)
		e.normsSq[l] = normSq
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
	words := (e.dim + 63) / 64
	return &engineScratch{
		acc:    make([]int64, e.classes),
		scores: make([]float64, e.classes),
		lo:     make([]uint64, words),
		hi:     make([]uint64, words),
	}
}

// ScoresPackedInto writes the norm-adjusted similarity of the packed query
// against every class into out (length NumClasses) and returns out — the
// packed-domain twin of hdc.Model.ScoresInto, with no float64 expansion of
// the query and zero heap allocations. Symbols must already be within the
// protocol alphabet; the engine does not re-validate them (the server does
// at the wire). Empty classes score −Inf so they never win the argmax.
func (e *Engine) ScoresPackedInto(q []int8, out []float64) []float64 {
	if len(q) != e.dim {
		panic(fmt.Sprintf("intscore: query has dim %d, engine dim %d", len(q), e.dim))
	}
	if len(out) != e.classes {
		panic(fmt.Sprintf("intscore: scores buffer has %d slots, engine has %d classes", len(out), e.classes))
	}
	s := e.getScratch()
	e.scoresInto(q, out, s)
	e.scratch.Put(s)
	return out
}

// PredictPacked returns the argmax label for the packed query, scoring into
// pooled scratch — the fully allocation-free serving path for callers that
// do not need the per-class scores.
func (e *Engine) PredictPacked(q []int8) int {
	if len(q) != e.dim {
		panic(fmt.Sprintf("intscore: query has dim %d, engine dim %d", len(q), e.dim))
	}
	s := e.getScratch()
	e.scoresInto(q, s.scores, s)
	label := vecmath.ArgMax(s.scores)
	e.scratch.Put(s)
	return label
}

// scoresInto scores q into out using the caller's scratch.
func (e *Engine) scoresInto(q []int8, out []float64, s *engineScratch) {
	acc := s.acc
	for l := range acc {
		acc[l] = 0
	}
	e.planes.accumulate(q, acc, s)
	for l, n := range e.norms {
		if n == 0 {
			out[l] = math.Inf(-1)
			continue
		}
		out[l] = float64(acc[l]) / n
	}
}

// PartialCapable reports whether the engine can answer sharded partial-
// score requests: every engine can, since Prepare admits only classes
// whose integer partial sums and Σv² are exact. It is nil-safe, so a model
// Prepare refused (no engine) reports false.
func (e *Engine) PartialCapable() bool { return e != nil }

// NormsSq returns the per-class Σv² slice. The returned slice is the
// engine's backing storage: read-only.
func (e *Engine) NormsSq() []float64 { return e.normsSq }

// PartialsPackedInto writes the raw integer dot ⟨q, C_l⟩ for every class
// into out (length NumClasses) and returns out — the sharded-serving
// primitive: a replica holding a dimension slice of the model scores its
// slice of the query, and the coordinator sums the int64 partials across
// shards (exactly) before the single norm division.
func (e *Engine) PartialsPackedInto(q []int8, out []int64) []int64 {
	if len(q) != e.dim {
		panic(fmt.Sprintf("intscore: query has dim %d, engine dim %d", len(q), e.dim))
	}
	if len(out) != e.classes {
		panic(fmt.Sprintf("intscore: partials buffer has %d slots, engine has %d classes", len(out), e.classes))
	}
	for l := range out {
		out[l] = 0
	}
	s := e.getScratch()
	e.planes.accumulate(q, out, s)
	e.scratch.Put(s)
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
// time, as splitPlanes does with the query's symbols.
func newBitPlanes(classes [][]float64, b int) bitPlanes {
	words := (len(classes[0]) + 63) / 64
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
// (§III-B2 / Table I): AND, then popcount. It splits the query into the
// lo and hi planes of its 2-bit two's-complement symbols (s = lo − 2·hi),
// so each class plane c contributes popcnt(lo ∧ c) − 2·popcnt(hi ∧ c) at
// the plane's weight. The sums are exact integers, and the cost does not
// depend on the query's zero fraction. Planes go two at a time, so each
// query word loaded feeds four popcounts; an odd last plane is paired with
// itself.
func (bp bitPlanes) accumulate(q []int8, acc []int64, s *engineScratch) {
	ws := bp.words
	lo, hi := s.lo[:ws], s.hi[:ws]
	splitPlanes(q, lo, hi)
	stride := bp.b * ws
	for l := range acc {
		row := bp.p[l*stride : (l+1)*stride]
		var n [8]int // n[j] = Σ s·bit over plane j
		j := 0
		for ; j+2 <= bp.b; j += 2 {
			n[j], n[j+1] = planeDot2(lo, hi, row[j*ws:(j+1)*ws], row[(j+1)*ws:(j+2)*ws])
		}
		if j < bp.b {
			n[j], _ = planeDot2(lo, hi, row[j*ws:], row[j*ws:])
		}
		dot := -int64(n[bp.b-1]) << (bp.b - 1)
		for j := 0; j < bp.b-1; j++ {
			dot += int64(n[j]) << j
		}
		acc[l] += dot
	}
}

// planeDot2 returns Σ s·c over two class planes c0 and c1:
// popcnt(lo ∧ c) − 2·popcnt(hi ∧ c), word by word.
func planeDot2(lo, hi, c0, c1 []uint64) (n0, n1 int) {
	lo, hi, c1 = lo[:len(c0)], hi[:len(c0)], c1[:len(c0)]
	var l0, h0, l1, h1 int
	for w, x := range c0 {
		l, h, y := lo[w], hi[w], c1[w]
		l0 += bits.OnesCount64(l & x)
		h0 += bits.OnesCount64(h & x)
		l1 += bits.OnesCount64(l & y)
		h1 += bits.OnesCount64(h & y)
	}
	return l0 - 2*h0, l1 - 2*h1
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

// splitPlanes writes q's lo and hi bit-planes, 64 symbols per word: bit i
// of a word is bit 0 (lo) or bit 1 (hi) of its symbol. Only a symbol's two
// low bits are read, so symbols outside −2…+1 score as whatever those
// bits spell.
func splitPlanes(q []int8, lo, hi []uint64) {
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

// accumulate picks the panel kernel for q. Count zero symbols
// branchlessly ((sym|−sym)>>7&1 is 1 iff sym≠0) over a leading sample —
// rank-based quantization scatters its zeros across positions, so a prefix
// is representative, and the choice only affects speed, never the (exact)
// result. Queries with an appreciable zero fraction — the paper's ternary,
// biased-ternary and 2-bit schemes — take the gather kernel that indexes
// only the non-zero symbols and needs no multiplies; zero-poor (bipolar)
// queries keep the dense multiply-accumulate kernel.
func (p panels[T]) accumulate(q []int8, acc []int64, s *engineScratch) {
	sample := min(len(q), 512)
	nonzero := 0
	for _, sym := range q[:sample] {
		nonzero += int((sym | -sym) >> 7 & 1)
	}
	if sample-nonzero >= sample/8 {
		p.gather(q, acc, s)
	} else {
		p.dense(q, acc)
	}
}

// dense walks the blocked panels so each query block is reused across all
// classes while it is hot in L1. Classes are consumed four at a time: each
// loaded (and sign-extended) query symbol feeds four multiply-accumulates,
// which is what pushes the kernel past the float path rather than merely
// matching it.
func (p panels[T]) dense(q []int8, acc []int64) {
	const bd = blockDim
	for base, off := 0, 0; off < len(q); base, off = base+len(acc)*bd, off+bd {
		qb := q[off:min(off+bd, len(q))]
		n := len(qb)
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
// zero fraction: per block it partitions the query symbols into +1/−1/−2
// index lists once (shared by every class), then each class row needs only
// indexed loads and adds — Σ s·p = Σ_{+1} p − Σ_{−1} p − 2·Σ_{−2} p — and
// zero symbols cost nothing at all. This is the software form of the
// paper's hardware observation that a quantized query turns the
// associative-memory search into adder trees (§III-B2 / Table I). Indices
// are uint8 against *[blockDim]-array rows (the layout zero-pads the tail
// block to a full panel), so every access is provably in bounds and the
// kernel carries no checks. Symbols outside the −2…+1 alphabet are
// undefined behaviour for the engine (servers validate at the wire); this
// path treats them as −2.
func (p panels[T]) gather(q []int8, acc []int64, s *engineScratch) {
	const bd = blockDim
	for base, off := 0, 0; off < len(q); base, off = base+len(acc)*bd, off+bd {
		pos, neg, neg2 := s.partition(q[off:min(off+bd, len(q))])
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

// partition splits one query block's symbols into +1/−1/−2 index lists
// branchlessly: the symbol's sign and low bits select which list's cursor
// advances, and every list unconditionally records the index at its
// cursor — random symbols would make a branchy switch mispredict on nearly
// every element.
func (s *engineScratch) partition(qb []int8) (pos, neg, neg2 []uint8) {
	const bd = blockDim
	np, nn, n2 := 0, 0, 0
	for j, sym := range qb {
		s.pos[np&(bd-1)] = uint8(j)
		s.neg[nn&(bd-1)] = uint8(j)
		s.neg2[n2&(bd-1)] = uint8(j)
		isNeg := int(sym>>7) & 1  // 1 for −1/−2
		np += int(sym&1) &^ isNeg // odd and non-negative → +1
		nn += int(sym&1) & isNeg  // odd and negative → −1
		n2 += int(^sym&1) & isNeg // even and negative → −2
	}
	return s.pos[:np], s.neg[:nn], s.neg2[:n2]
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

// DotPacked returns Σ q[i]·c[i] without expanding q, accumulated in index
// order with a single accumulator so the result is bit-identical to
// vecmath.Dot on the float64 expansion of q — hdc.Model's kernel for the
// non-integer models Prepare refuses.
func DotPacked(q []int8, c []float64) float64 {
	if len(q) != len(c) {
		panic("intscore: DotPacked length mismatch")
	}
	var s float64
	for i, v := range q {
		s += float64(v) * c[i]
	}
	return s
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
