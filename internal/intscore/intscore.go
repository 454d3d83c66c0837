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
// vector is integer-valued; Prepare lays the classes out as cache-blocked
// int8/int16/int32 panels. Scoring a packed query is then a pure integer
// dot per class — 4- or 8-wide unrolled int64 multiply-accumulate over
// panels sized to stay in L1 — finished by one float division per class
// with the same ℓ2 norm the float path divides by.
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

// DefaultBlockDim is the dimensions-per-panel block size Prepare uses: with
// int16 planes and a few dozen classes, one block panel plus the query block
// stays within a typical 32 KiB L1 data cache. It must not exceed 256: the
// gather kernels index panels with uint8 (enforced by the constant
// conversion below).
const DefaultBlockDim = 256

const _ = uint8(DefaultBlockDim - 1) // compile-time guard for uint8 indices

// exactLimit is 2^53, below which integer-valued float64 sums are exact.
// Prepare refuses any class whose Σv² or worst-case |accumulator| (2·‖C‖₁)
// could reach it, or with a coordinate of magnitude 2^26 or more, so both
// whole-model scores and cross-shard partial sums never silently lose bits.
const (
	exactLimit = 1 << 53
	maxAbsVal  = 1 << 26
)

// plane widths in bytes, in the order Prepare narrows them.
const (
	width8  = 1
	width16 = 2
	width32 = 4
)

// Engine scores packed queries against one model's prepared class planes.
// It is immutable after Prepare and safe for concurrent use.
type Engine struct {
	dim      int
	classes  int
	blockDim int

	// norms[l] is ‖C_l‖₂, computed exactly as the float scoring path
	// computes it; 0 marks an empty class, scored −Inf.
	norms []float64

	// normsSq[l] is Σ C_l[i]², exact by Prepare's bound — what sharded
	// partial scoring needs: exact integer sums are associative, so a
	// coordinator adding per-slice normsSq (and per-slice int64 dots)
	// across dimension shards reconstructs the whole-model score
	// bit-for-bit.
	normsSq []float64

	// Classes live in one blocked panel slice, block-major then row-major:
	// plane[(b·classes+l)·blockDim : …+blockDim] is the dimensions
	// [b·blockDim, (b+1)·blockDim) of class l. The tail block is
	// zero-padded. Exactly one of plane8/16/32 is non-nil; the width is
	// the narrowest that fits every class.
	width   int
	plane8  []int8
	plane16 []int16
	plane32 []int32

	scratch sync.Pool
}

// engineScratch is one call's pooled working set.
type engineScratch struct {
	acc    []int64
	scores []float64
	// pos/neg/neg2 are block-local index lists of the query's +1/−1/−2
	// symbols, rebuilt per block on the gather path. Elements are uint8 —
	// a block index always fits — so the gather kernels can prove every
	// row access in bounds against *[DefaultBlockDim]-array rows.
	pos, neg, neg2 [DefaultBlockDim]uint8
}

// Prepare derives an engine from a model's class prototypes with the
// default block size, or returns nil if some class is not integer-valued
// within the exactness bound (see the package doc). The class slices are
// read once and copied into the blocked layout; callers must not mutate
// them afterwards without re-preparing.
func Prepare(classes [][]float64) *Engine {
	return PrepareBlocked(classes, DefaultBlockDim)
}

// PrepareBlocked is Prepare with an explicit dimensions-per-panel block
// size (exported for tests that exercise dims that do not divide the block
// size; serving code uses Prepare).
func PrepareBlocked(classes [][]float64, blockDim int) *Engine {
	if blockDim <= 0 {
		panic(fmt.Sprintf("intscore: block size must be positive, got %d", blockDim))
	}
	e := &Engine{
		classes:  len(classes),
		blockDim: blockDim,
		norms:    make([]float64, len(classes)),
		normsSq:  make([]float64, len(classes)),
	}
	if len(classes) == 0 {
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
		e.width = width8
	case maxAbs <= math.MaxInt16:
		e.width = width16
	default:
		e.width = width32
	}

	// Second pass: copy the classes into the blocked panel layout.
	blocks := (e.dim + blockDim - 1) / blockDim
	n := blocks * e.classes * blockDim
	switch e.width {
	case width8:
		e.plane8 = make([]int8, n)
	case width16:
		e.plane16 = make([]int16, n)
	default:
		e.plane32 = make([]int32, n)
	}
	for l, c := range classes {
		for i, v := range c {
			at := (i/blockDim*e.classes+l)*blockDim + i%blockDim
			switch e.width {
			case width8:
				e.plane8[at] = int8(v)
			case width16:
				e.plane16[at] = int16(v)
			default:
				e.plane32[at] = int32(v)
			}
		}
	}
	return e
}

// Dim returns the engine's hypervector dimensionality.
func (e *Engine) Dim() int { return e.dim }

// NumClasses returns the number of classes the engine scores.
func (e *Engine) NumClasses() int { return e.classes }

// PlaneBits returns the integer plane element width in bits (8, 16 or 32),
// or 0 for an engine over no classes.
func (e *Engine) PlaneBits() int { return e.width * 8 }

func (e *Engine) getScratch() *engineScratch {
	if s, ok := e.scratch.Get().(*engineScratch); ok {
		return s
	}
	return &engineScratch{
		acc:    make([]int64, e.classes),
		scores: make([]float64, e.classes),
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

// scoresInto scores q into out using the caller's scratch. Integer-domain
// sums are exact whichever kernel computes them, so the adaptive choice
// below never changes a score bit.
func (e *Engine) scoresInto(q []int8, out []float64, s *engineScratch) {
	acc := s.acc
	for l := range acc {
		acc[l] = 0
	}
	e.accumulateAdaptive(q, acc, s)
	for l, n := range e.norms {
		if n == 0 {
			out[l] = math.Inf(-1)
			continue
		}
		out[l] = float64(acc[l]) / n
	}
}

// accumulateAdaptive picks the integer kernel for q and adds every class's
// dot into acc. Count zero symbols branchlessly ((sym|−sym)>>7&1 is
// 1 iff sym≠0) over a leading sample — rank-based quantization scatters its
// zeros across positions, so a prefix is representative, and the choice
// only affects speed, never the (exact) result. Queries with an
// appreciable zero fraction — the paper's ternary, biased-ternary and
// 2-bit schemes — take the gather path that indexes only the non-zero
// symbols and needs no multiplies; zero-poor (bipolar) queries keep the
// dense multiply-accumulate panels.
func (e *Engine) accumulateAdaptive(q []int8, acc []int64, s *engineScratch) {
	sample := len(q)
	if sample > 512 {
		sample = 512
	}
	nonzero := 0
	for _, sym := range q[:sample] {
		nonzero += int((sym | -sym) >> 7 & 1)
	}
	if sample-nonzero >= sample/8 && e.blockDim == DefaultBlockDim {
		e.accumulateGather(q, acc, s)
	} else {
		e.accumulate(q, acc)
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
	e.accumulateAdaptive(q, out, s)
	e.scratch.Put(s)
	return out
}

// accumulate adds every class's dot with q into acc (one slot per class),
// walking the blocked panels so each query block is reused across all
// classes while it is hot in L1. Classes are consumed four at a time: each loaded (and
// sign-extended) query symbol feeds four multiply-accumulates, which is
// what pushes the kernel past the float path rather than merely matching
// it.
func (e *Engine) accumulate(q []int8, acc []int64) {
	bd := e.blockDim
	for b, off := 0, 0; off < e.dim; b, off = b+1, off+bd {
		end := off + bd
		if end > e.dim {
			end = e.dim
		}
		qb := q[off:end]
		n := len(qb)
		base := b * len(acc) * bd
		k := 0
		switch e.width {
		case width8:
			for ; k+4 <= len(acc); k += 4 {
				at := base + k*bd
				dot8x4(qb,
					e.plane8[at:at+n],
					e.plane8[at+bd:at+bd+n],
					e.plane8[at+2*bd:at+2*bd+n],
					e.plane8[at+3*bd:at+3*bd+n],
					&acc[k], &acc[k+1], &acc[k+2], &acc[k+3])
			}
			for ; k < len(acc); k++ {
				at := base + k*bd
				acc[k] += dot8(qb, e.plane8[at:at+n])
			}
		case width16:
			for ; k+4 <= len(acc); k += 4 {
				at := base + k*bd
				dot16x4(qb,
					e.plane16[at:at+n],
					e.plane16[at+bd:at+bd+n],
					e.plane16[at+2*bd:at+2*bd+n],
					e.plane16[at+3*bd:at+3*bd+n],
					&acc[k], &acc[k+1], &acc[k+2], &acc[k+3])
			}
			for ; k < len(acc); k++ {
				at := base + k*bd
				acc[k] += dot16(qb, e.plane16[at:at+n])
			}
		default:
			for ; k+4 <= len(acc); k += 4 {
				at := base + k*bd
				dot32x4(qb,
					e.plane32[at:at+n],
					e.plane32[at+bd:at+bd+n],
					e.plane32[at+2*bd:at+2*bd+n],
					e.plane32[at+3*bd:at+3*bd+n],
					&acc[k], &acc[k+1], &acc[k+2], &acc[k+3])
			}
			for ; k < len(acc); k++ {
				at := base + k*bd
				acc[k] += dot32(qb, e.plane32[at:at+n])
			}
		}
	}
}

// accumulateGather is the multiplication-free kernel for queries with an
// appreciable zero fraction: per block it partitions the query symbols into
// +1/−1/−2 index lists once (shared by every class), then each class row
// needs only indexed loads and adds — Σ s·p = Σ_{+1} p − Σ_{−1} p −
// 2·Σ_{−2} p — and zero symbols cost nothing at all. This is the software
// form of the paper's hardware observation that a quantized query turns the
// associative-memory search into adder trees (§III-B2 / Table I). Indices
// are uint8 against *[DefaultBlockDim]-array rows (the layout zero-pads the
// tail block to a full panel), so every access is provably in bounds and
// the kernels carry no checks. Symbols outside the −2…+1 alphabet are
// undefined behaviour for the engine (servers validate at the wire); this
// path treats them as −2. Only runs at the default block size, where a
// block index fits uint8.
func (e *Engine) accumulateGather(q []int8, acc []int64, s *engineScratch) {
	const bd = DefaultBlockDim
	for b, off := 0, 0; off < e.dim; b, off = b+1, off+bd {
		end := off + bd
		if end > e.dim {
			end = e.dim
		}
		qb := q[off:end]
		// Partition the block's symbols into +1/−1/−2 index lists
		// branchlessly: the symbol's sign and low bits select which list's
		// cursor advances, and every list unconditionally records the index
		// at its cursor — random symbols would make a branchy switch
		// mispredict on nearly every element.
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
		pos, neg, neg2 := s.pos[:np], s.neg[:nn], s.neg2[:n2]
		base := b * len(acc) * bd
		k := 0
		switch e.width {
		case width8:
			for ; k+4 <= len(acc); k += 4 {
				at := base + k*bd
				r0 := (*[bd]int8)(e.plane8[at:])
				r1 := (*[bd]int8)(e.plane8[at+bd:])
				r2 := (*[bd]int8)(e.plane8[at+2*bd:])
				r3 := (*[bd]int8)(e.plane8[at+3*bd:])
				g0, g1, g2, g3 := gather8x4(pos, r0, r1, r2, r3)
				h0, h1, h2, h3 := gather8x4(neg, r0, r1, r2, r3)
				m0, m1, m2, m3 := gather8x4(neg2, r0, r1, r2, r3)
				acc[k] += g0 - h0 - 2*m0
				acc[k+1] += g1 - h1 - 2*m1
				acc[k+2] += g2 - h2 - 2*m2
				acc[k+3] += g3 - h3 - 2*m3
			}
			for ; k < len(acc); k++ {
				r := (*[bd]int8)(e.plane8[base+k*bd:])
				acc[k] += gather8(pos, r) - gather8(neg, r) - 2*gather8(neg2, r)
			}
		case width16:
			for ; k+4 <= len(acc); k += 4 {
				at := base + k*bd
				r0 := (*[bd]int16)(e.plane16[at:])
				r1 := (*[bd]int16)(e.plane16[at+bd:])
				r2 := (*[bd]int16)(e.plane16[at+2*bd:])
				r3 := (*[bd]int16)(e.plane16[at+3*bd:])
				g0, g1, g2, g3 := gather16x4(pos, r0, r1, r2, r3)
				h0, h1, h2, h3 := gather16x4(neg, r0, r1, r2, r3)
				m0, m1, m2, m3 := gather16x4(neg2, r0, r1, r2, r3)
				acc[k] += g0 - h0 - 2*m0
				acc[k+1] += g1 - h1 - 2*m1
				acc[k+2] += g2 - h2 - 2*m2
				acc[k+3] += g3 - h3 - 2*m3
			}
			for ; k < len(acc); k++ {
				r := (*[bd]int16)(e.plane16[base+k*bd:])
				acc[k] += gather16(pos, r) - gather16(neg, r) - 2*gather16(neg2, r)
			}
		default:
			for ; k+4 <= len(acc); k += 4 {
				at := base + k*bd
				r0 := (*[bd]int32)(e.plane32[at:])
				r1 := (*[bd]int32)(e.plane32[at+bd:])
				r2 := (*[bd]int32)(e.plane32[at+2*bd:])
				r3 := (*[bd]int32)(e.plane32[at+3*bd:])
				g0, g1, g2, g3 := gather32x4(pos, r0, r1, r2, r3)
				h0, h1, h2, h3 := gather32x4(neg, r0, r1, r2, r3)
				m0, m1, m2, m3 := gather32x4(neg2, r0, r1, r2, r3)
				acc[k] += g0 - h0 - 2*m0
				acc[k+1] += g1 - h1 - 2*m1
				acc[k+2] += g2 - h2 - 2*m2
				acc[k+3] += g3 - h3 - 2*m3
			}
			for ; k < len(acc); k++ {
				r := (*[bd]int32)(e.plane32[base+k*bd:])
				acc[k] += gather32(pos, r) - gather32(neg, r) - 2*gather32(neg2, r)
			}
		}
	}
}

// gather8x4 sums four int8 class rows at the given block-local indices: one
// index load feeds four adds — no multiplies, and no bounds checks, since a
// uint8 index cannot escape a [DefaultBlockDim]-array row.
func gather8x4(idx []uint8, p0, p1, p2, p3 *[DefaultBlockDim]int8) (s0, s1, s2, s3 int64) {
	for _, j := range idx {
		s0 += int64(p0[j])
		s1 += int64(p1[j])
		s2 += int64(p2[j])
		s3 += int64(p3[j])
	}
	return
}

// gather16x4 is gather8x4 over int16 rows.
func gather16x4(idx []uint8, p0, p1, p2, p3 *[DefaultBlockDim]int16) (s0, s1, s2, s3 int64) {
	for _, j := range idx {
		s0 += int64(p0[j])
		s1 += int64(p1[j])
		s2 += int64(p2[j])
		s3 += int64(p3[j])
	}
	return
}

// gather32x4 is gather8x4 over int32 rows.
func gather32x4(idx []uint8, p0, p1, p2, p3 *[DefaultBlockDim]int32) (s0, s1, s2, s3 int64) {
	for _, j := range idx {
		s0 += int64(p0[j])
		s1 += int64(p1[j])
		s2 += int64(p2[j])
		s3 += int64(p3[j])
	}
	return
}

// gather8/16/32 are the single-row leftover kernels.
func gather8(idx []uint8, p *[DefaultBlockDim]int8) (s int64) {
	for _, j := range idx {
		s += int64(p[j])
	}
	return
}

func gather16(idx []uint8, p *[DefaultBlockDim]int16) (s int64) {
	for _, j := range idx {
		s += int64(p[j])
	}
	return
}

func gather32(idx []uint8, p *[DefaultBlockDim]int32) (s int64) {
	for _, j := range idx {
		s += int64(p[j])
	}
	return
}

// dot8x4 multiply-accumulates one query block against four int8 class rows
// at once: one symbol load and sign-extension per four MACs, four
// independent accumulator chains.
func dot8x4(q []int8, p0, p1, p2, p3 []int8, a0, a1, a2, a3 *int64) {
	n := len(q)
	p0, p1, p2, p3 = p0[:n], p1[:n], p2[:n], p3[:n]
	var s0, s1, s2, s3 int64
	for i := 0; i < n; i++ {
		s := int64(q[i])
		s0 += s * int64(p0[i])
		s1 += s * int64(p1[i])
		s2 += s * int64(p2[i])
		s3 += s * int64(p3[i])
	}
	*a0 += s0
	*a1 += s1
	*a2 += s2
	*a3 += s3
}

// dot16x4 is dot8x4 over int16 class rows.
func dot16x4(q []int8, p0, p1, p2, p3 []int16, a0, a1, a2, a3 *int64) {
	n := len(q)
	p0, p1, p2, p3 = p0[:n], p1[:n], p2[:n], p3[:n]
	var s0, s1, s2, s3 int64
	for i := 0; i < n; i++ {
		s := int64(q[i])
		s0 += s * int64(p0[i])
		s1 += s * int64(p1[i])
		s2 += s * int64(p2[i])
		s3 += s * int64(p3[i])
	}
	*a0 += s0
	*a1 += s1
	*a2 += s2
	*a3 += s3
}

// dot32x4 is dot8x4 over int32 class rows.
func dot32x4(q []int8, p0, p1, p2, p3 []int32, a0, a1, a2, a3 *int64) {
	n := len(q)
	p0, p1, p2, p3 = p0[:n], p1[:n], p2[:n], p3[:n]
	var s0, s1, s2, s3 int64
	for i := 0; i < n; i++ {
		s := int64(q[i])
		s0 += s * int64(p0[i])
		s1 += s * int64(p1[i])
		s2 += s * int64(p2[i])
		s3 += s * int64(p3[i])
	}
	*a0 += s0
	*a1 += s1
	*a2 += s2
	*a3 += s3
}

// dot8 is the single-row int8 kernel for the ≤3 leftover classes, 4-wide
// unrolled with independent accumulators.
func dot8(q []int8, p []int8) int64 {
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

// dot16 is the single-row int16 leftover kernel.
func dot16(q []int8, p []int16) int64 {
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

// dot32 is the single-row int32 leftover kernel.
func dot32(q []int8, p []int32) int64 {
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
