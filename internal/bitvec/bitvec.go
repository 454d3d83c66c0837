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
