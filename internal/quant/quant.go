// Package quant implements the encoding quantization schemes of Prive-HD
// §III-B2 and the sensitivity analysis that motivates them (paper Eqs. 11,
// 12 and 14).
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
	"sync"

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
// their sign. Rank-based assignment (instead of a fixed threshold) hits the
// design occupancy exactly even on the discrete integer-valued encodings
// Eq. 2b produces, which is what makes the Eq. 14 sensitivity tight.
type Ternary struct{}

// Name returns "ternary".
func (Ternary) Name() string { return "ternary" }

// Quantize returns the ternary quantization of h.
func (Ternary) Quantize(h []float64) []float64 {
	return ternaryQuantize(h, 1.0/3.0)
}

// Alphabet returns {−1, 0, +1}.
func (Ternary) Alphabet() []float64 { return []float64{-1, 0, 1} }

// Probabilities returns {1/3, 1/3, 1/3}.
func (Ternary) Probabilities() []float64 { return []float64{1. / 3, 1. / 3, 1. / 3} }

// BiasedTernary is the paper's "ternary (biased)" scheme: the quantization
// threshold is chosen so p_0 = 1/2 and p_{−1} = p_{+1} = 1/4, trading a
// denser zero symbol for a 0.87× lower sensitivity at equal dimension
// (paper §III-B2, Fig. 5b).
type BiasedTernary struct{}

// Name returns "ternary-biased".
func (BiasedTernary) Name() string { return "ternary-biased" }

// Quantize returns the biased ternary quantization of h.
func (BiasedTernary) Quantize(h []float64) []float64 {
	return ternaryQuantize(h, 0.5)
}

// Alphabet returns {−1, 0, +1}.
func (BiasedTernary) Alphabet() []float64 { return []float64{-1, 0, 1} }

// Probabilities returns {1/4, 1/2, 1/4}.
func (BiasedTernary) Probabilities() []float64 { return []float64{0.25, 0.5, 0.25} }

// ternaryQuantize zeroes the ⌊zeroFraction·D⌋ smallest-magnitude
// dimensions (ties resolved by index, making the map deterministic) and
// maps the rest to their sign. Exact zeros always stay zero.
func ternaryQuantize(h []float64, zeroFraction float64) []float64 {
	out := make([]float64, len(h))
	if len(h) == 0 {
		return out
	}
	ternaryQuantizeInto(out, h, zeroFraction, vecmath.AbsRank(h))
	return out
}

// ternaryQuantizeInto writes the ternary quantization of h into out using a
// precomputed |h| rank. out may alias h: every index is read before it is
// written.
func ternaryQuantizeInto(out, h []float64, zeroFraction float64, rank []int) {
	nz := int(zeroFraction * float64(len(h)))
	for r, i := range rank {
		x := h[i]
		switch {
		case r < nz || x == 0:
			out[i] = 0
		case x > 0:
			out[i] = 1
		default:
			out[i] = -1
		}
	}
}

// TwoBit quantizes onto the paper's 2-bit alphabet {−2, −1, 0, +1} with
// uniform occupancy p = 1/4 per symbol: rank-based quartile assignment,
// lowest quarter → −2, then −1, then 0, top quarter → +1.
type TwoBit struct{}

// Name returns "2bit".
func (TwoBit) Name() string { return "2bit" }

// Quantize returns the 2-bit quantization of h.
func (TwoBit) Quantize(h []float64) []float64 {
	out := make([]float64, len(h))
	n := len(h)
	if n == 0 {
		return out
	}
	rank := vecmath.Rank(h)
	symbols := [4]float64{-2, -1, 0, 1}
	for r, i := range rank {
		out[i] = symbols[4*r/n]
	}
	return out
}

// Alphabet returns {−2, −1, 0, +1}.
func (TwoBit) Alphabet() []float64 { return []float64{-2, -1, 0, 1} }

// Probabilities returns {1/4, 1/4, 1/4, 1/4}.
func (TwoBit) Probabilities() []float64 { return []float64{0.25, 0.25, 0.25, 0.25} }

// rankPool recycles the index scratch the rank-based schemes need, so the
// per-query QuantizeInto path allocates nothing. Pointers to slices are
// pooled (and threaded through put) to avoid re-boxing the header per use.
var rankPool = sync.Pool{}

func getRank(n int) *[]int {
	if p, ok := rankPool.Get().(*[]int); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]int, n)
	return &s
}

func putRank(p *[]int) { rankPool.Put(p) }

// QuantizeInto writes the quantization of h into dst (which must have
// length len(h)) without allocating — the serving hot path's form of
// Quantize. dst may alias h. The paper schemes quantize with pooled rank
// scratch; unknown Quantizer implementations fall back to Quantize + copy.
func QuantizeInto(q Quantizer, dst, h []float64) {
	if len(dst) != len(h) {
		panic(fmt.Sprintf("quant: QuantizeInto dst has len %d, h %d", len(dst), len(h)))
	}
	if len(h) == 0 {
		return
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
		rank := getRank(len(h))
		ternaryQuantizeInto(dst, h, 1.0/3.0, vecmath.AbsRankInto(h, *rank))
		putRank(rank)
	case BiasedTernary:
		rank := getRank(len(h))
		ternaryQuantizeInto(dst, h, 0.5, vecmath.AbsRankInto(h, *rank))
		putRank(rank)
	case TwoBit:
		rank := getRank(len(h))
		vecmath.RankInto(h, *rank)
		symbols := [4]float64{-2, -1, 0, 1}
		for r, i := range *rank {
			dst[i] = symbols[4*r/len(h)]
		}
		putRank(rank)
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
