package fpga

import (
	"privehd/internal/bitvec"
	"privehd/internal/hrand"
)

// BipolarCircuit is the Fig. 7a block: it computes the sign (bipolar
// quantization) of one encoded dimension from its d_iv ±1 partial products
// (represented in hardware as bits: 1 ↔ +1, 0 ↔ −1).
//
// The exact computation is a d_iv-input majority. The paper's approximation
// replaces the first stage with 6-input majority LUTs over disjoint groups
// of inputs ("we use majority LUTs only in the first stage, so the next
// stages are typical adder-tree") and then counts the group-majority bits
// exactly.
type BipolarCircuit struct {
	div int
	// groupLUTs[g] is the majority LUT for group g; the last group may be
	// narrower than 6.
	groupLUTs []LUT6
	widths    []int
	// finalTieUp resolves the exact second-stage tie (even group counts).
	finalTieUp bool
}

// NewBipolarCircuit builds the approximate-majority circuit for d_iv
// inputs. Tie policies for each first-stage LUT and the final comparison
// are drawn from src — "predetermined" randomness fixed at synthesis time,
// exactly as the paper prescribes.
func NewBipolarCircuit(div int, src *hrand.Source) *BipolarCircuit {
	if div < 1 {
		panic("fpga: BipolarCircuit needs at least one input")
	}
	c := &BipolarCircuit{div: div, finalTieUp: src.IntN(2) == 1}
	for off := 0; off < div; off += 6 {
		w := div - off
		if w > 6 {
			w = 6
		}
		c.groupLUTs = append(c.groupLUTs, MajorityLUT6(w, src.IntN(2) == 1))
		c.widths = append(c.widths, w)
	}
	return c
}

// Inputs returns d_iv.
func (c *BipolarCircuit) Inputs() int { return c.div }

// Groups returns the number of first-stage majority LUTs, ⌈d_iv/6⌉.
func (c *BipolarCircuit) Groups() int { return len(c.groupLUTs) }

// GroupEval evaluates first-stage majority LUT g on its inputs; the
// structural netlist builder copies these truth tables so the gate-level
// circuit matches the behavioral one bit-for-bit.
func (c *BipolarCircuit) GroupEval(g int, in []bool) bool {
	return c.groupLUTs[g].Eval(in...)
}

// FinalTieUp reports the tie policy of the second-stage comparison.
func (c *BipolarCircuit) FinalTieUp() bool { return c.finalTieUp }

// Eval computes the approximate sign of Σ(±1 inputs): true ↔ +1. bits must
// have length d_iv.
func (c *BipolarCircuit) Eval(bits []bool) bool {
	if len(bits) != c.div {
		panic("fpga: BipolarCircuit.Eval input width mismatch")
	}
	ones := 0
	off := 0
	for g, lut := range c.groupLUTs {
		w := c.widths[g]
		if lut.Eval(bits[off : off+w]...) {
			ones++
		}
		off += w
	}
	n := len(c.groupLUTs)
	return ones*2 > n || (ones*2 == n && c.finalTieUp)
}

// ExactMajority is the behavioral reference: the true sign of the summed
// ±1 inputs, with ties resolved by tieUp.
func ExactMajority(bits []bool, tieUp bool) bool {
	ones := 0
	for _, b := range bits {
		if b {
			ones++
		}
	}
	n := len(bits)
	return ones*2 > n || (ones*2 == n && tieUp)
}

// QuantizeEncoding runs the circuit over every dimension of an Eq. 2b
// encoding given its per-feature bit planes (from
// hdc.LevelEncoder.BitPlanes): plane[k].Get(j) is the k-th ±1 partial
// product of dimension j. It returns the hardware bipolar quantization as a
// ±1 float hypervector — directly comparable to quant.Bipolar applied to
// the arithmetic encoding.
func (c *BipolarCircuit) QuantizeEncoding(planes []*bitvec.Vector) []float64 {
	if len(planes) != c.div {
		panic("fpga: QuantizeEncoding plane count mismatch")
	}
	dim := planes[0].Len()
	out := make([]float64, dim)
	bits := make([]bool, c.div)
	for j := 0; j < dim; j++ {
		for k, p := range planes {
			bits[k] = p.Get(j)
		}
		if c.Eval(bits) {
			out[j] = 1
		} else {
			out[j] = -1
		}
	}
	return out
}

// ExactQuantizeEncoding is the exact-popcount counterpart of
// QuantizeEncoding, for measuring the approximation's accuracy impact.
func ExactQuantizeEncoding(planes []*bitvec.Vector, tieUp bool) []float64 {
	if len(planes) == 0 {
		panic("fpga: ExactQuantizeEncoding needs at least one plane")
	}
	dim := planes[0].Len()
	out := make([]float64, dim)
	bits := make([]bool, len(planes))
	for j := 0; j < dim; j++ {
		for k, p := range planes {
			bits[k] = p.Get(j)
		}
		if ExactMajority(bits, tieUp) {
			out[j] = 1
		} else {
			out[j] = -1
		}
	}
	return out
}
