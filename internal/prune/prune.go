// Package prune implements the model-pruning and dimension-masking
// techniques of Prive-HD §III-B1 and §III-C.
//
// Model pruning nullifies the s% of class-hypervector dimensions closest to
// zero — they contribute least to the Eq. 4 dot product because information
// is spread uniformly over the encoded query (paper Fig. 3) — and keeps them
// perpetually zero through retraining. Pruned dimensions never need to be
// encoded at inference, which lowers both cost and, crucially, the ℓ2
// sensitivity of the released model (∆f ∝ sqrt(D_hv)).
//
// Dimension masking is the inference-side variant: zero a chosen set of
// query dimensions before offloading, degrading reconstruction much faster
// than accuracy (paper Fig. 6, Fig. 9b).
package prune

import (
	"fmt"

	"privehd/internal/hdc"
	"privehd/internal/vecmath"
)

// Mask is the set of hypervector dimensions that survive pruning: Keep[j]
// reports whether dimension j is retained.
type Mask struct {
	Keep []bool
	kept int
}

// NewMask returns a mask over dim dimensions with every dimension kept.
func NewMask(dim int) *Mask {
	keep := make([]bool, dim)
	for i := range keep {
		keep[i] = true
	}
	return &Mask{Keep: keep, kept: dim}
}

// Kept returns the number of retained dimensions.
func (m *Mask) Kept() int { return m.kept }

// Dim returns the total number of dimensions the mask covers.
func (m *Mask) Dim() int { return len(m.Keep) }

// Drop marks dimension j as pruned. Dropping twice is a no-op.
func (m *Mask) Drop(j int) {
	if m.Keep[j] {
		m.Keep[j] = false
		m.kept--
	}
}

// Apply zeroes the pruned dimensions of v in place.
func (m *Mask) Apply(v []float64) {
	if len(v) != len(m.Keep) {
		panic(fmt.Sprintf("prune: Apply on vector of dim %d, mask dim %d", len(v), len(m.Keep)))
	}
	for j, keep := range m.Keep {
		if !keep {
			v[j] = 0
		}
	}
}

// Words returns the kept set as ⌈Dim/64⌉ words, bit j%64 of word j/64 set
// when dimension j is kept: the AND mask of a query's bit-planes.
func (m *Mask) Words() []uint64 {
	w := make([]uint64, (len(m.Keep)+63)/64)
	for j, keep := range m.Keep {
		if keep {
			w[j/64] |= 1 << (j % 64)
		}
	}
	return w
}

// AppliedCopy returns a masked copy of v, leaving v untouched.
func (m *Mask) AppliedCopy(v []float64) []float64 {
	out := vecmath.Clone(v)
	m.Apply(out)
	return out
}

// GlobalMagnitudeMask builds the paper's pruning mask from a trained model:
// rank every dimension by its total magnitude across class hypervectors
// (Σ_l |C_l[j]|) and drop the lowest `drop` dimensions — the "close-to-zero"
// dimensions of §III-B1. It panics if drop is outside [0, dim].
func GlobalMagnitudeMask(m *hdc.Model, drop int) *Mask {
	dim := m.Dim()
	if drop < 0 || drop > dim {
		panic(fmt.Sprintf("prune: drop %d out of range [0,%d]", drop, dim))
	}
	score := make([]float64, dim)
	for l := 0; l < m.NumClasses(); l++ {
		c := m.Class(l)
		for j, v := range c {
			if v < 0 {
				score[j] -= v
			} else {
				score[j] += v
			}
		}
	}
	mask := NewMask(dim)
	order := vecmath.AbsRank(score) // score ≥ 0, so AbsRank == ascending rank
	for _, j := range order[:drop] {
		mask.Drop(j)
	}
	return mask
}

// DiscriminativeMask ranks dimensions by their cross-class deviation
// Σ_l |C_l[j] − mean_l C_l[j]| and drops the lowest `drop` — dimensions on
// which the classes agree, however large their shared value.
//
// Rationale: the paper prunes by raw |class value|, which works when
// class-specific energy dominates. Synthetic workloads (and
// strongly-correlated real features) carry a large common-mode component
// that inflates |C_l[j]| on dimensions with zero discriminative content;
// ranking by deviation from the class mean selects the dimensions that
// actually move the Eq. 4 argmax. The experiments package benchmarks both
// criteria against each other (experiments.Ablations).
func DiscriminativeMask(m *hdc.Model, drop int) *Mask {
	dim := m.Dim()
	if drop < 0 || drop > dim {
		panic(fmt.Sprintf("prune: drop %d out of range [0,%d]", drop, dim))
	}
	classes := m.NumClasses()
	mean := make([]float64, dim)
	for l := 0; l < classes; l++ {
		vecmath.Add(mean, m.Class(l))
	}
	vecmath.Scale(mean, 1/float64(classes))
	score := make([]float64, dim)
	for l := 0; l < classes; l++ {
		c := m.Class(l)
		for j, v := range c {
			d := v - mean[j]
			if d < 0 {
				d = -d
			}
			score[j] += d
		}
	}
	mask := NewMask(dim)
	order := vecmath.AbsRank(score)
	for _, j := range order[:drop] {
		mask.Drop(j)
	}
	return mask
}

// PruneModel zeroes the masked dimensions of every class hypervector in
// place and invalidates the model's cached norms.
func PruneModel(m *hdc.Model, mask *Mask) {
	for l := 0; l < m.NumClasses(); l++ {
		mask.Apply(m.Class(l))
	}
	m.InvalidateAll()
}

// PerClassMagnitudeMasks is the per-class reading of the paper's pruning
// text ("prune out the close-to-zero class elements"): each class
// hypervector drops its own smallest-|value| dimensions, giving one mask
// per class. Unlike the global masks, a dimension pruned in one class may
// survive in another, so queries must stay complete — this variant saves
// model storage and multiply-accumulates but NOT encoding work or
// sensitivity, which is why Prive-HD's DP path needs the global form. It is
// provided for completeness and for the pruning-criterion ablation.
func PerClassMagnitudeMasks(m *hdc.Model, drop int) []*Mask {
	dim := m.Dim()
	if drop < 0 || drop > dim {
		panic(fmt.Sprintf("prune: drop %d out of range [0,%d]", drop, dim))
	}
	masks := make([]*Mask, m.NumClasses())
	for l := range masks {
		mask := NewMask(dim)
		order := vecmath.AbsRank(m.Class(l))
		for _, j := range order[:drop] {
			mask.Drop(j)
		}
		masks[l] = mask
	}
	return masks
}

// PrunePerClass applies one mask per class hypervector.
func PrunePerClass(m *hdc.Model, masks []*Mask) {
	if len(masks) != m.NumClasses() {
		panic(fmt.Sprintf("prune: %d masks for %d classes", len(masks), m.NumClasses()))
	}
	for l, mask := range masks {
		mask.Apply(m.Class(l))
	}
	m.InvalidateAll()
}

// MaskedRetrain runs the paper's prune-then-retrain procedure (§III-B1,
// Fig. 4): after each Eq. 5 update the pruned dimensions are re-zeroed so
// they "perpetually remain zero", letting the surviving dimensions absorb
// the pruned information. It returns per-epoch evaluation accuracies and
// stops early once an epoch makes no updates.
func MaskedRetrain(m *hdc.Model, mask *Mask, encoded [][]float64, labels []int, evalEncoded [][]float64, evalLabels []int, epochs int) []float64 {
	// Queries must also be masked: pruned dimensions are never encoded.
	maskedTrain := maskAll(mask, encoded)
	maskedEval := maskAll(mask, evalEncoded)
	accs := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		updates := hdc.RetrainEpoch(m, maskedTrain, labels)
		// Class vectors only ever accumulate masked queries, so pruned
		// dimensions stay zero without re-zeroing; assert cheaply in
		// development builds via PruneModel idempotence instead of paying
		// a scan per epoch.
		accs = append(accs, hdc.Evaluate(m, maskedEval, evalLabels))
		if updates == 0 {
			break
		}
	}
	return accs
}

// maskAll returns masked copies of every encoding.
func maskAll(mask *Mask, encoded [][]float64) [][]float64 {
	out := make([][]float64, len(encoded))
	for i, h := range encoded {
		out[i] = mask.AppliedCopy(h)
	}
	return out
}

// MaskBatch returns masked copies of every encoding — the inference-side
// obfuscation of §III-C applied to a batch of offloaded queries.
func MaskBatch(mask *Mask, encoded [][]float64) [][]float64 {
	return maskAll(mask, encoded)
}

// RandomMask drops `drop` dimensions chosen by the caller-supplied sampler
// (typically hrand.Source.SampleK). The inference-privacy experiments mask
// random dimensions because the edge device has no access to the model's
// magnitude ranking.
func RandomMask(dim, drop int, sample func(n, k int) []int) *Mask {
	if drop < 0 || drop > dim {
		panic(fmt.Sprintf("prune: drop %d out of range [0,%d]", drop, dim))
	}
	mask := NewMask(dim)
	for _, j := range sample(dim, drop) {
		mask.Drop(j)
	}
	return mask
}

// InformationRetention reproduces the Fig. 3 measurement: given a class
// hypervector and a query encoded from that class, it returns the fraction
// of the full normalized dot product retained as dimensions are restored in
// ascending-magnitude order. retained[k] is the fraction after restoring k
// dimensions (so retained[0] = 0 and retained[dim] = 1 when the full dot
// product is positive).
func InformationRetention(class, query []float64) []float64 {
	if len(class) != len(query) {
		panic("prune: InformationRetention length mismatch")
	}
	full := vecmath.Dot(class, query)
	order := vecmath.AbsRank(class)
	retained := make([]float64, len(class)+1)
	var acc float64
	for k, j := range order {
		acc += class[j] * query[j]
		if full != 0 {
			retained[k+1] = acc / full
		}
	}
	return retained
}
