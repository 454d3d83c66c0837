package encslice

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// refSymbols is the rule quantizeInts's cut points replace: indices
// sorted stably by |v| (ternary) or by v (two-bit), so ties keep index
// order, then symbols by position.
func refSymbols(v []int32, scheme Scheme) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	key := func(x int32) int64 { return int64(x) }
	if scheme != SchemeTwoBit {
		key = func(x int32) int64 { return max(int64(x), -int64(x)) }
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(v[idx[a]]) < key(v[idx[b]]) })
	out := make([]int, len(v))
	n := len(v)
	for r, i := range idx {
		x := v[i]
		switch scheme {
		case SchemeBipolar:
			out[i] = 1
			if x < 0 {
				out[i] = -1
			}
		case SchemeTernary, SchemeBiasedTernary:
			frac := 1.0 / 3.0
			if scheme == SchemeBiasedTernary {
				frac = 0.5
			}
			switch {
			case r < int(frac*float64(n)) || x == 0:
			case x > 0:
				out[i] = 1
			default:
				out[i] = -1
			}
		case SchemeTwoBit:
			out[i] = 4*r/n - 2
		}
	}
	return out
}

// TestCutPointMatchesStableSort checks quantizeInts — its counting
// histogram when the key bound fits one digit, its radix select when it
// does not — against the stable-sort rule, on tie-heavy vectors (span
// 1–40) and wide ones, at lengths 1–10 000 off multiples of 4 and 64, and
// on an all-zero vector. Every plane word starts dirty, so a word left
// unwritten or a bit set past the last dimension shows.
func TestCutPointMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 17))
	lengths := []int{1, 2, 3, 5, 7, 63, 64, 65, 130, 1001, 4099, 10000}
	for i := 0; i < 20; i++ {
		lengths = append(lengths, 1+rng.IntN(10000))
	}
	type vec struct {
		v     []int32
		bound uint32
	}
	var vecs []vec
	for _, n := range lengths {
		span := 1 + rng.IntN(40)
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.IntN(span) - span/2)
		}
		// The engine's bound is F or F·(ℓ−1): at or above every |v|, and
		// past one histogram digit in scalar mode.
		for _, bound := range []uint32{uint32(span), 617, 1 << 20, 1<<31 - 1} {
			vecs = append(vecs, vec{v, bound})
		}
	}
	wide := make([]int32, 5000)
	for i := range wide {
		wide[i] = int32(rng.IntN(1<<24) - 1<<23)
	}
	vecs = append(vecs, vec{wide, 1 << 23}, vec{make([]int32, 100), 617})
	for _, tc := range vecs {
		words := (len(tc.v) + 63) / 64
		for _, scheme := range []Scheme{SchemeBipolar, SchemeTernary, SchemeBiasedTernary, SchemeTwoBit} {
			lo, hi := make([]uint64, words), make([]uint64, words)
			for w := range lo {
				lo[w], hi[w] = ^uint64(0), ^uint64(0)
			}
			quantizeInts(tc.v, tc.bound, scheme, lo, hi)
			want := refSymbols(tc.v, scheme)
			for j := 0; j < 64*words; j++ {
				got := int(lo[j/64]>>(j%64)&1) - 2*int(hi[j/64]>>(j%64)&1)
				if j >= len(tc.v) {
					if got != 0 {
						t.Fatalf("scheme %d D=%d: bit set past the last dimension at %d", scheme, len(tc.v), j)
					}
					continue
				}
				if got != want[j] {
					t.Fatalf("scheme %d D=%d bound %d: [%d] = %d, stable-sort rule %d (v=%d)",
						scheme, len(tc.v), tc.bound, j, got, want[j], tc.v[j])
				}
			}
		}
	}
}
