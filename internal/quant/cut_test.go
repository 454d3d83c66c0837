package quant

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// stableOrder is the reference order the cut points replace: indices
// sorted stably by key, so ties keep index order.
func stableOrder(h []float64, key func(float64) float64) []int {
	idx := make([]int, len(h))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(h[idx[a]]) < key(h[idx[b]]) })
	return idx
}

// refTernary zeroes the ⌊frac·D⌋ first dimensions of the (|h|, index)
// order and every exact zero, and maps the rest to their sign.
func refTernary(h []float64, frac float64) []float64 {
	out := make([]float64, len(h))
	nz := int(frac * float64(len(h)))
	for r, i := range stableOrder(h, math.Abs) {
		switch x := h[i]; {
		case r < nz || x == 0:
		case x > 0:
			out[i] = 1
		default:
			out[i] = -1
		}
	}
	return out
}

// refTwoBit gives position r of the (h, index) order symbol ⌊4r/D⌋ − 2.
func refTwoBit(h []float64) []float64 {
	out := make([]float64, len(h))
	for r, i := range stableOrder(h, func(x float64) float64 { return x }) {
		out[i] = float64(4*r/len(h) - 2)
	}
	return out
}

// cutVectors returns tie-heavy test vectors: integers of span 1–40 (some
// scaled, as scalar encodings are, and some negative zeros), at lengths
// 1–10 000 that include ones off multiples of 4 and 64, plus an all-zero
// vector and a wide-range one.
func cutVectors() [][]float64 {
	rng := rand.New(rand.NewPCG(7, 11))
	lengths := []int{1, 2, 3, 5, 7, 63, 65, 130, 1001, 4099, 10000}
	for i := 0; i < 20; i++ {
		lengths = append(lengths, 1+rng.IntN(10000))
	}
	var out [][]float64
	for _, n := range lengths {
		span := 1 + rng.IntN(40)
		scale := 1.0
		if rng.IntN(2) == 0 {
			scale = 1.0 / float64(1+rng.IntN(99))
		}
		h := make([]float64, n)
		for i := range h {
			h[i] = float64(rng.IntN(span)-span/2) * scale
			if h[i] == 0 && rng.IntN(3) == 0 {
				h[i] = math.Copysign(0, -1)
			}
		}
		out = append(out, h)
	}
	wide := make([]float64, 3000)
	for i := range wide {
		wide[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(20)-10))
	}
	return append(out, make([]float64, 100), wide)
}

// TestCutPointMatchesStableSort checks every cut-point quantizer, both
// Quantize and an aliased QuantizeInto, against the stable-sort rule.
func TestCutPointMatchesStableSort(t *testing.T) {
	for _, h := range cutVectors() {
		for _, tc := range []struct {
			q    Quantizer
			want []float64
		}{
			{Ternary{}, refTernary(h, 1.0/3.0)},
			{BiasedTernary{}, refTernary(h, 0.5)},
			{TwoBit{}, refTwoBit(h)},
		} {
			alias := append([]float64(nil), h...)
			QuantizeInto(tc.q, alias, alias)
			for name, got := range map[string][]float64{"Quantize": tc.q.Quantize(h), "QuantizeInto": alias} {
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("%s %s D=%d: [%d] = %v, stable-sort rule %v (h=%v)",
							tc.q.Name(), name, len(h), i, got[i], tc.want[i], h[i])
					}
				}
			}
		}
	}
}
