// Package attack implements the privacy attacks of Prive-HD §III-A: the
// Eq. 9–10 input reconstruction from an encoded hypervector, its extension
// to the level-based (Eq. 2b) encoding, and the model-difference membership
// attack that recovers a training record from two adjacent HD models.
//
// These attacks are what the paper's defences are measured against: the
// PSNR/MSE of the reconstructions (Figs. 2, 6 and 9b) quantify how much
// information an offloaded query or released model actually leaks.
package attack

import (
	"fmt"
	"math"

	"privehd/internal/hdc"
	"privehd/internal/vecmath"
)

// Decode reconstructs the feature-level values from an encoded hypervector
// using the orthogonality of the base hypervectors (paper Eq. 10):
//
//	f(v_m) ≈ (~H · ~B_m) / D_hv
//
// For the scalar (Eq. 2a) encoding the result approximates the level values
// f ∈ [0,1] used at encoding time. The same projection applied to quantized
// or masked hypervectors yields the degraded reconstructions the
// inference-privacy experiments measure. enc must expose its bases.
func Decode(enc hdc.BaseProvider, h []float64) ([]float64, error) {
	if len(h) != enc.Dim() {
		return nil, fmt.Errorf("attack: encoded dim %d, encoder dim %d", len(h), enc.Dim())
	}
	d := float64(enc.Dim())
	out := make([]float64, enc.NumFeatures())
	base := make([]float64, enc.Dim())
	for m := range out {
		out[m] = vecmath.Dot(h, enc.BaseInto(m, base)) / d
	}
	return out, nil
}

// DecodeScaled is Decode followed by rescaling the projection to account
// for the norm shrinkage of quantized hypervectors: a bipolar-quantized
// encoding preserves the *direction* of each feature's contribution but not
// its magnitude, so the raw projection underestimates the levels. Scaling
// by ‖H‖-preserving factor alpha = ‖h_q‖·‖h‖ ratios is unavailable to an
// eavesdropper; instead DecodeScaled normalizes the output to [0,1] by its
// own min/max — the best a realistic adversary can do, and what the paper's
// PSNR comparisons imply (images are rendered after normalization).
func DecodeScaled(enc hdc.BaseProvider, h []float64) ([]float64, error) {
	raw, err := Decode(enc, h)
	if err != nil {
		return nil, err
	}
	lo, hi := raw[0], raw[0]
	for _, v := range raw {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		// Degenerate reconstruction: no information survived.
		for i := range raw {
			raw[i] = 0
		}
		return raw, nil
	}
	for i := range raw {
		raw[i] = (raw[i] - lo) / (hi - lo)
	}
	return raw, nil
}

// LevelDecoder reconstructs inputs from level-based (Eq. 2b) encodings.
// The paper notes the Eq. 10 attack "can easily be adjusted to the other HD
// encodings": for Eq. 2b the adversary scores every level ℓ of feature m by
// projecting onto ~L_ℓ ⊙ ~B_m and picks the argmax.
type LevelDecoder struct {
	enc *hdc.LevelEncoder
	// products[m][l] is the precomputed ±1 float product L_l ⊙ B_m.
	products [][][]float64
}

// NewLevelDecoder precomputes the projection vectors for every
// (feature, level) pair. Memory cost is Features×Levels×Dim float64s;
// callers working at full scale should prefer modest Levels.
func NewLevelDecoder(enc *hdc.LevelEncoder) *LevelDecoder {
	F, levels := enc.NumFeatures(), enc.Levels()
	products := make([][][]float64, F)
	for m := range products {
		products[m] = make([][]float64, levels)
	}
	x := make([]float64, F)
	for l := 0; l < levels; l++ {
		// With every feature at level l, the encoder's partial-product
		// planes are exactly L_l ⊙ B_m for every m.
		for m := range x {
			x[m] = (float64(l) + 0.5) / float64(levels)
		}
		for m, p := range enc.BitPlanes(x) {
			products[m][l] = p.Floats()
		}
	}
	return &LevelDecoder{enc: enc, products: products}
}

// Decode returns the most likely level value (in [0,1]) for every feature
// of the encoded hypervector h.
func (d *LevelDecoder) Decode(h []float64) ([]float64, error) {
	if len(h) != d.enc.Dim() {
		return nil, fmt.Errorf("attack: encoded dim %d, encoder dim %d", len(h), d.enc.Dim())
	}
	levels := d.enc.Levels()
	out := make([]float64, d.enc.NumFeatures())
	scores := make([]float64, levels)
	for m := range out {
		for l := 0; l < levels; l++ {
			scores[l] = vecmath.Dot(h, d.products[m][l])
		}
		out[m] = hdc.LevelValue(vecmath.ArgMax(scores), levels)
	}
	return out, nil
}

// ModelDifference mounts the §III-A membership attack: given two models
// trained on adjacent datasets (D2 = D1 + one record), the per-class
// difference of class hypervectors isolates the missing record's encoding,
// which Decode can then invert. It returns the recovered encoding and the
// class whose vectors differ. If the models are identical it returns an
// error.
func ModelDifference(m1, m2 *hdc.Model) (encoding []float64, class int, err error) {
	if m1.NumClasses() != m2.NumClasses() || m1.Dim() != m2.Dim() {
		return nil, 0, fmt.Errorf("attack: model geometries differ: (%d,%d) vs (%d,%d)",
			m1.NumClasses(), m1.Dim(), m2.NumClasses(), m2.Dim())
	}
	bestClass, bestNorm := -1, 0.0
	var bestDiff []float64
	for l := 0; l < m1.NumClasses(); l++ {
		c1, c2 := m1.Class(l), m2.Class(l)
		diff := make([]float64, len(c1))
		for j := range diff {
			diff[j] = c2[j] - c1[j]
		}
		if n := vecmath.Norm2(diff); n > bestNorm {
			bestNorm, bestClass, bestDiff = n, l, diff
		}
	}
	if bestClass < 0 || bestNorm == 0 {
		return nil, 0, fmt.Errorf("attack: models are identical; no record to recover")
	}
	return bestDiff, bestClass, nil
}

// ReconstructionError summarizes an attack's success against one input.
type ReconstructionError struct {
	// MSE is the mean squared error between the true (normalized) features
	// and the reconstruction.
	MSE float64
	// PSNR is the corresponding peak signal-to-noise ratio in dB with peak
	// 1.0 (features are normalized); the paper reports ≈23.6 dB for plain
	// encodings and ≈13 dB after quantization+masking.
	PSNR float64
}

// Measure computes reconstruction metrics for a single input.
func Measure(truth, recon []float64) ReconstructionError {
	return ReconstructionError{
		MSE:  vecmath.MSE(truth, recon),
		PSNR: vecmath.PSNR(truth, recon, 1),
	}
}

// MeasureBatch averages reconstruction MSE and PSNR over a batch; PSNR is
// computed from the averaged MSE (matching how image papers aggregate).
func MeasureBatch(truths, recons [][]float64) ReconstructionError {
	if len(truths) != len(recons) {
		panic("attack: MeasureBatch length mismatch")
	}
	if len(truths) == 0 {
		return ReconstructionError{}
	}
	var mse float64
	for i := range truths {
		mse += vecmath.MSE(truths[i], recons[i])
	}
	mse /= float64(len(truths))
	out := ReconstructionError{MSE: mse}
	if mse == 0 {
		out.PSNR = math.Inf(1)
	} else {
		out.PSNR = 10 * math.Log10(1/mse)
	}
	return out
}
