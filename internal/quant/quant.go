// Package quant implements the encoding quantization schemes of Prive-HD
// §III-B2 and the sensitivity analysis that motivates them (paper Eqs. 11,
// 12 and 14).
//
// The ternary, biased-ternary and 2-bit schemes assign symbols by cut
// point, ties by index: a scheme with occupancy p below a cut takes the
// ⌊p·D⌋ (or ⌈k·D/4⌉) first dimensions of the (|h|, index) or (h, index)
// order, found by an exact select rather than by sorting, so the design
// occupancies hold exactly even on integer-valued encodings with many
// ties.
//
// Per Eq. 13, quantization applies only to the final encoded hypervector:
// the scalar-vector products and the accumulation stay full precision, and
// the class hypervectors built from quantized encodings remain non-binary.
// Quantizing the encoding bounds its ℓ2 norm — and the ℓ2 norm of one
// encoding is exactly the ℓ2 sensitivity of HD training, since adjacent
// datasets differ by one bundled encoding (§III-B).
package quant

import (
	"fmt"
	"math"

	"privehd/internal/vecmath"
)

// Quantizer maps a full-precision encoded hypervector onto a small symbol
// alphabet. Implementations must be stateless and safe for concurrent use.
type Quantizer interface {
	// Name identifies the scheme in reports ("bipolar", "ternary", ...).
	Name() string
	// Quantize returns a fresh quantized copy of h.
	Quantize(h []float64) []float64
	// Alphabet returns the symbol values the scheme can emit, ascending.
	Alphabet() []float64
	// Probabilities returns the design occupancy p_k of each alphabet
	// symbol (same order as Alphabet), used by the Eq. 14 analytic
	// sensitivity. For i.i.d. encodings the empirical occupancy converges
	// to these values.
	Probabilities() []float64
}

// Identity is the full-precision "no quantization" baseline.
type Identity struct{}

// Name returns "full".
func (Identity) Name() string { return "full" }

// Quantize returns an unmodified copy of h.
func (Identity) Quantize(h []float64) []float64 { return vecmath.Clone(h) }

// Alphabet returns nil: the identity scheme has no finite alphabet.
func (Identity) Alphabet() []float64 { return nil }

// Probabilities returns nil, matching Alphabet.
func (Identity) Probabilities() []float64 { return nil }

// Bipolar is the 1-bit sign quantization of Eq. 13: ~H_q1 = sign(~H).
// Zero quantizes to +1 so the output is always ±1.
type Bipolar struct{}

// Name returns "bipolar".
func (Bipolar) Name() string { return "bipolar" }

// Quantize returns sign(h).
func (Bipolar) Quantize(h []float64) []float64 {
	out := make([]float64, len(h))
	for i, x := range h {
		if x >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// Alphabet returns {−1, +1}.
func (Bipolar) Alphabet() []float64 { return []float64{-1, 1} }

// Probabilities returns {1/2, 1/2}: encoded dimensions are symmetric
// zero-mean sums, so "roughly D_hv/2 of encoded dimensions are 1" (paper).
func (Bipolar) Probabilities() []float64 { return []float64{0.5, 0.5} }

// Ternary quantizes onto {−1, 0, +1} with uniform occupancy p = 1/3 per
// symbol: the ⌊D/3⌋ smallest-magnitude dimensions become 0, the rest keep
// their sign. The zeroed set is fixed by a cut point on |h|, ties by index
// (instead of a fixed threshold), so it hits the design occupancy exactly
// even on the discrete integer-valued encodings Eq. 2b produces, which is
// what makes the Eq. 14 sensitivity tight.
type Ternary struct{}

// Name returns "ternary".
func (Ternary) Name() string { return "ternary" }

// Quantize returns the ternary quantization of h.
func (Ternary) Quantize(h []float64) []float64 {
	out := make([]float64, len(h))
	ternaryQuantizeInto(out, h, 1.0/3.0)
	return out
}

// Alphabet returns {−1, 0, +1}.
func (Ternary) Alphabet() []float64 { return []float64{-1, 0, 1} }

// Probabilities returns {1/3, 1/3, 1/3}.
func (Ternary) Probabilities() []float64 { return []float64{1. / 3, 1. / 3, 1. / 3} }

// BiasedTernary is the paper's "ternary (biased)" scheme: the quantization
// threshold is chosen so p_0 = 1/2 and p_{−1} = p_{+1} = 1/4, trading a
// denser zero symbol for a 0.87× lower sensitivity at equal dimension
// (paper §III-B2, Fig. 5b). Its cut point is the median of |h|, ties by
// index.
type BiasedTernary struct{}

// Name returns "ternary-biased".
func (BiasedTernary) Name() string { return "ternary-biased" }

// Quantize returns the biased ternary quantization of h.
func (BiasedTernary) Quantize(h []float64) []float64 {
	out := make([]float64, len(h))
	ternaryQuantizeInto(out, h, 0.5)
	return out
}

// Alphabet returns {−1, 0, +1}.
func (BiasedTernary) Alphabet() []float64 { return []float64{-1, 0, 1} }

// Probabilities returns {1/4, 1/2, 1/4}.
func (BiasedTernary) Probabilities() []float64 { return []float64{0.25, 0.5, 0.25} }

// ternaryQuantizeInto zeroes the ⌊zeroFraction·D⌋ smallest-magnitude
// dimensions of h (ties by index, making the map deterministic) and maps
// the rest to their sign, writing into out. Exact zeros always stay zero.
// out may alias h: the cut is found before any write, and every index is
// read before it is written.
func ternaryQuantizeInto(out, h []float64, zeroFraction float64) {
	c := cutAt(h, int(zeroFraction*float64(len(h))), true)
	for i, x := range h {
		switch {
		case c.take(key(x, true)) || x == 0:
			out[i] = 0
		case x > 0:
			out[i] = 1
		default:
			out[i] = -1
		}
	}
}

// TwoBit quantizes onto the paper's 2-bit alphabet {−2, −1, 0, +1} with
// uniform occupancy p = 1/4 per symbol: three cut points on h, ties by
// index, split it into quarters, lowest quarter → −2, then −1, then 0, top
// quarter → +1.
type TwoBit struct{}

// Name returns "2bit".
func (TwoBit) Name() string { return "2bit" }

// Quantize returns the 2-bit quantization of h.
func (TwoBit) Quantize(h []float64) []float64 {
	out := make([]float64, len(h))
	twoBitQuantizeInto(out, h)
	return out
}

// Alphabet returns {−2, −1, 0, +1}.
func (TwoBit) Alphabet() []float64 { return []float64{-2, -1, 0, 1} }

// Probabilities returns {1/4, 1/4, 1/4, 1/4}.
func (TwoBit) Probabilities() []float64 { return []float64{0.25, 0.25, 0.25, 0.25} }

// twoBitQuantizeInto writes the 2-bit quantization of h into out: the
// element at position r of the (h, index) order gets symbol ⌊4r/D⌋ − 2, so
// the k-th cut takes the ⌈k·D/4⌉ first. out may alias h.
func twoBitQuantizeInto(out, h []float64) {
	n := len(h)
	var cuts [3]cut
	for k := range cuts {
		cuts[k] = cutAt(h, ((k+1)*n+3)/4, false)
	}
	for i, x := range h {
		k, sym := key(x, false), -2.0
		for j := range cuts {
			if !cuts[j].take(k) {
				sym++
			}
		}
		out[i] = sym
	}
}

// cut is one cut point of the order (key, index): the c first elements of
// that order are every key below t and the first m keys equal to t, in
// index order.
type cut struct {
	t uint64
	m int
}

// take reports whether the next element in index order, whose key is k,
// falls below the cut, consuming one of the cut's ties when k == t.
// Elements must be offered in index order, each once.
func (c *cut) take(k uint64) bool {
	if k == c.t && c.m > 0 {
		c.m--
		return true
	}
	return k < c.t
}

// key maps x to a uint64 whose unsigned order is the order of |x| (abs) or
// of x: the bits of a non-negative float order like its value, and
// flipping them (negative) or setting the sign bit (non-negative) orders
// every float. −0 keys as +0, so the two tie like the values do.
func key(x float64, abs bool) uint64 {
	if x == 0 {
		x = 0
	}
	if abs {
		return math.Float64bits(math.Abs(x))
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// cutAt returns the cut that takes the c first elements of h in the
// (key, index) order, by an exact select: a most-significant-digit radix
// select over the keys, eight bits a pass, which reads h without copying
// it or allocating. c ≤ 0 takes nothing.
func cutAt(h []float64, c int, abs bool) cut {
	if c <= 0 {
		return cut{}
	}
	const digit, mask = 8, 1<<8 - 1
	var t uint64 // the key bits decided so far
	need := c    // how many of the keys matching t's decided bits to take
	for shift := 64 - digit; shift >= 0; shift -= digit {
		var count [1 << digit]int
		for _, x := range h {
			if k := key(x, abs); k>>(shift+digit) == t>>(shift+digit) {
				count[k>>shift&mask]++
			}
		}
		d := 0
		for ; count[d] < need; d++ {
			need -= count[d]
		}
		t |= uint64(d) << shift
	}
	return cut{t: t, m: need}
}

// QuantizeInto writes the quantization of h into dst (which must have
// length len(h)) without allocating — the serving hot path's form of
// Quantize. dst may alias h. Unknown Quantizer implementations fall back
// to Quantize + copy.
func QuantizeInto(q Quantizer, dst, h []float64) {
	if len(dst) != len(h) {
		panic(fmt.Sprintf("quant: QuantizeInto dst has len %d, h %d", len(dst), len(h)))
	}
	switch q := q.(type) {
	case Identity:
		copy(dst, h)
	case Bipolar:
		for i, x := range h {
			if x >= 0 {
				dst[i] = 1
			} else {
				dst[i] = -1
			}
		}
	case Ternary:
		ternaryQuantizeInto(dst, h, 1.0/3.0)
	case BiasedTernary:
		ternaryQuantizeInto(dst, h, 0.5)
	case TwoBit:
		twoBitQuantizeInto(dst, h)
	default:
		copy(dst, q.Quantize(h))
	}
}

// QuantizeBatch quantizes every encoding in place-order, returning fresh
// slices. It is the inference-side path (paper §III-C): encodings produced
// by a full-precision encoder are quantized before offloading, while the
// model stays full precision.
func QuantizeBatch(q Quantizer, encodings [][]float64) [][]float64 {
	out := make([][]float64, len(encodings))
	for i, h := range encodings {
		out[i] = q.Quantize(h)
	}
	return out
}

// Schemes lists every quantizer in the order the paper's Fig. 5 plots them.
func Schemes() []Quantizer {
	return []Quantizer{Bipolar{}, Ternary{}, BiasedTernary{}, TwoBit{}}
}

// Parse returns the quantizer with the given Name, or an error listing the
// valid names. "full" returns Identity.
func Parse(name string) (Quantizer, error) {
	all := append(Schemes(), Identity{})
	for _, q := range all {
		if q.Name() == name {
			return q, nil
		}
	}
	names := make([]string, len(all))
	for i, q := range all {
		names[i] = q.Name()
	}
	return nil, fmt.Errorf("quant: unknown scheme %q (valid: %v)", name, names)
}
