// Package bitvec implements packed bipolar hypervectors.
//
// A bipolar hypervector v ∈ {−1,+1}^D is stored as D bits across ⌈D/64⌉
// uint64 words, with bit=1 encoding +1 and bit=0 encoding −1 — the same
// convention the paper uses for its FPGA mapping ("we can represent −1 by 0,
// and +1 by 1 in hardware"). Dimension-wise multiplication of bipolar values
// becomes XNOR and dot products become popcounts, which is exactly the
// arithmetic the Fig. 7 LUT-6 circuits implement. The fpga and netlist
// packages consume this representation directly.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Vector is a packed bipolar hypervector of fixed dimension.
type Vector struct {
	n     int // logical dimension
	words []uint64
}

// New returns a Vector of dimension n with every coordinate −1 (all bits 0).
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative dimension")
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// FromFloats packs a ±1 float vector. Values > 0 map to +1; values <= 0 map
// to −1 (so a sign-quantized vector round-trips exactly, with the paper's
// convention that sign(0) breaks toward −1 unless callers choose otherwise).
func FromFloats(v []float64) *Vector {
	out := New(len(v))
	for i, x := range v {
		if x > 0 {
			out.Set(i, true)
		}
	}
	return out
}

// Len returns the logical dimension of v.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words; the tail bits beyond Len are always zero.
// Callers must not keep the slice across mutations.
func (v *Vector) Words() []uint64 { return v.words }

// Set assigns coordinate i: plus=true means +1, plus=false means −1.
func (v *Vector) Set(i int, plus bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	if plus {
		v.words[i/64] |= 1 << (i % 64)
	} else {
		v.words[i/64] &^= 1 << (i % 64)
	}
}

// Get reports whether coordinate i is +1.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i/64]&(1<<(i%64)) != 0
}

// Sign returns coordinate i as ±1.
func (v *Vector) Sign(i int) float64 {
	if v.Get(i) {
		return 1
	}
	return -1
}

// Floats unpacks v into a ±1 float64 slice.
func (v *Vector) Floats() []float64 {
	out := make([]float64, v.n)
	for i := range out {
		out[i] = v.Sign(i)
	}
	return out
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	out := New(v.n)
	copy(out.words, v.words)
	return out
}

// Xnor returns the element-wise bipolar product a⊙b (XNOR of the bit
// representations): (+1,+1)→+1, (−1,−1)→+1, otherwise −1. This is the
// dimension-wise multiply of paper Eq. 2b. Panics on length mismatch.
func Xnor(a, b *Vector) *Vector {
	if a.n != b.n {
		panic("bitvec: Xnor dimension mismatch")
	}
	out := New(a.n)
	for i := range a.words {
		out.words[i] = ^(a.words[i] ^ b.words[i])
	}
	out.maskTail()
	return out
}

// maskTail zeroes the unused high bits of the final word so popcounts stay
// exact.
func (v *Vector) maskTail() {
	if rem := v.n % 64; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << rem) - 1
	}
}

// PopCount returns the number of +1 coordinates.
func (v *Vector) PopCount() int {
	var c int
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Dot returns the bipolar inner product a·b = (#agreements − #disagreements)
// = 2·popcount(XNOR) − D, without materializing the intermediate vector.
func Dot(a, b *Vector) int {
	if a.n != b.n {
		panic("bitvec: Dot dimension mismatch")
	}
	var agree int
	for i := range a.words {
		agree += bits.OnesCount64(^(a.words[i] ^ b.words[i]))
	}
	// The tail bits of both vectors are zero, so XNOR makes them agree;
	// subtract the phantom agreements beyond dimension n.
	phantom := len(a.words)*64 - a.n
	agree -= phantom
	return 2*agree - a.n
}

// Hamming returns the number of coordinates where a and b differ.
func Hamming(a, b *Vector) int {
	if a.n != b.n {
		panic("bitvec: Hamming dimension mismatch")
	}
	var d int
	for i := range a.words {
		d += bits.OnesCount64(a.words[i] ^ b.words[i])
	}
	return d
}

// Cosine returns the cosine similarity of two bipolar vectors, which for
// ±1 vectors is Dot/D.
func Cosine(a, b *Vector) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(Dot(a, b)) / float64(a.n)
}

// AccumulateInto adds the bipolar values of v into the float accumulator
// acc (acc[i] += ±1). This is the bundling step of paper Eq. 3 when the
// encodings are sign-quantized. Panics on length mismatch.
func (v *Vector) AccumulateInto(acc []float64) {
	if len(acc) != v.n {
		panic("bitvec: AccumulateInto length mismatch")
	}
	for w, word := range v.words {
		base := w * 64
		limit := v.n - base
		if limit > 64 {
			limit = 64
		}
		chunk := acc[base : base+limit]
		for b := range chunk {
			// Branch-free ±1: bit → {1, -1}.
			chunk[b] += float64(int(word>>uint(b)&1)<<1 - 1)
		}
	}
}

// Rotate returns v cyclically shifted by k coordinates (coordinate j moves
// to (j+k) mod D). This is the permutation ρ^k used by sequence encoders to
// bind positions; rotation preserves norms and pairwise distances, and
// rotations of independent vectors remain near-orthogonal. Negative k
// rotates the other way.
func Rotate(v *Vector, k int) *Vector {
	n := v.n
	if n == 0 {
		return v.Clone()
	}
	k = ((k % n) + n) % n
	if k == 0 {
		return v.Clone()
	}
	out := New(n)
	for j := 0; j < n; j++ {
		if v.Get(j) {
			out.Set((j+k)%n, true)
		}
	}
	return out
}

// Majority returns the element-wise exact majority of the given vectors:
// out[i] = sign(Σ_k vs[k][i]), with ties broken toward +1 when tieUp is
// true and toward −1 otherwise. The FPGA package approximates this circuit;
// this function is the behavioral reference. Panics if vs is empty or the
// dimensions differ.
func Majority(vs []*Vector, tieUp bool) *Vector {
	if len(vs) == 0 {
		panic("bitvec: Majority of zero vectors")
	}
	n := vs[0].n
	out := New(n)
	for i := 0; i < n; i++ {
		sum := 0
		for _, v := range vs {
			if v.n != n {
				panic("bitvec: Majority dimension mismatch")
			}
			if v.Get(i) {
				sum++
			} else {
				sum--
			}
		}
		switch {
		case sum > 0:
			out.Set(i, true)
		case sum == 0 && tieUp:
			out.Set(i, true)
		}
	}
	return out
}

// String renders small vectors as a +/- pattern for debugging; longer
// vectors are summarized.
func (v *Vector) String() string {
	const max = 64
	if v.n <= max {
		b := make([]byte, v.n)
		for i := 0; i < v.n; i++ {
			if v.Get(i) {
				b[i] = '+'
			} else {
				b[i] = '-'
			}
		}
		return string(b)
	}
	return fmt.Sprintf("bitvec.Vector(dim=%d, +1s=%d)", v.n, v.PopCount())
}
