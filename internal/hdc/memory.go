package hdc

import "privehd/internal/hrand"

// The item and level memories of Eq. 2 exist once: their words are drawn
// here, handed to the bit-sliced engine, which copies them into its
// column-grouped layout, and dropped. An encoder keeps only the engine and
// reads vectors back through encslice.Engine.Word. The layout costs
// (D_iv+ℓ_iv)·⌈D_hv/512⌉·64 bytes for a level encoder and D_iv·⌈D_hv/512⌉·64
// for a scalar one: about 0.9 MB at the paper's 617 features, 100 levels
// and D_hv = 10 000.
//
// Both memories are packed one bit per dimension, bit j%64 of word j/64
// set for +1 (the bitvec convention), and a seed always draws the same
// bits: one hrand draw per dimension, in order, and the level chain's
// flips from one permutation.

// itemWords draws the D_iv random bipolar base (location) hypervectors B_k
// of Eq. 2, one per input feature position. Bases are drawn independently,
// which makes them near-orthogonal at HD dimensions — the property both the
// encoding and the reconstruction attack rely on.
func itemWords(src *hrand.Source, features, dim int) [][]uint64 {
	words := vectors(features, dim)
	for _, v := range words {
		randomWords(src, v, dim)
	}
	return words
}

// levelWords draws the ℓ_iv level hypervectors L of Eq. 2b. Per the paper,
// L_0 is random, consecutive levels differ by ⌊D_hv/(2·ℓ_iv)⌋ flipped
// bits, and the chain ends L_0 and L_{ℓ−1} are orthogonal.
//
// Implementation choice: the flipped positions are disjoint across steps
// (drawn from one random permutation), so the total flip count from first
// to last level is exactly (ℓ−1)·⌊D/(2ℓ)⌋ distinct bits ≈ D/2, making the
// end points orthogonal by construction rather than only in expectation.
// The paper's "randomly chosen" wording permits either; disjoint flips
// give the cleaner invariant (and are what reference HD implementations
// do).
func levelWords(src *hrand.Source, levels, dim int) [][]uint64 {
	words := vectors(levels, dim)
	randomWords(src, words[0], dim)
	perm := src.Perm(dim)
	perStep := dim / (2 * levels) // (ℓ−1)·perStep < dim: no position repeats
	for k := 1; k < levels; k++ {
		copy(words[k], words[k-1])
		for _, j := range perm[(k-1)*perStep : k*perStep] {
			words[k][j/64] ^= 1 << (j % 64)
		}
	}
	return words
}

// vectors returns n zeroed dim-bit vectors as views into one allocation.
func vectors(n, dim int) [][]uint64 {
	w := (dim + 63) / 64
	backing := make([]uint64, n*w)
	out := make([][]uint64, n)
	for i := range out {
		out[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// randomWords sets each of v's dim bits from one draw of src.
func randomWords(src *hrand.Source, v []uint64, dim int) {
	for j := 0; j < dim; j++ {
		v[j/64] |= (src.Uint64() & 1) << (j % 64)
	}
}
