// Package dp implements the differential-privacy machinery of Prive-HD
// §II-B and §III-B: the (ε,δ) Gaussian mechanism with the σ calibration the
// paper adopts from Abadi et al., the ε Laplace mechanism of Dwork et al.,
// and the model privatizer that perturbs HD class hypervectors after
// training.
//
// The paper's threat model: class hypervectors are sums of encodings
// (Eq. 3), so models trained on adjacent datasets differ by exactly one
// encoding, and the encoding's norm is the sensitivity. Noise is applied
// once, after all class hypervectors are built — Prive-HD does not retrain
// the noisy model, "as it violates the concept of differential privacy".
package dp

import (
	"fmt"
	"math"

	"privehd/internal/hdc"
	"privehd/internal/hrand"
)

// Params holds a differential-privacy budget.
type Params struct {
	// Epsilon is the privacy loss bound ε (> 0). Smaller is more private.
	Epsilon float64
	// Delta is the probability δ with which the ε guarantee may fail
	// (0 < δ < 1 for the Gaussian mechanism; 0 for pure-ε Laplace). The
	// paper fixes δ = 1e−5, "reasonable especially [as] the size of our
	// datasets are smaller than 10^5".
	Delta float64
}

// Validate reports whether the parameters describe a usable Gaussian budget.
func (p Params) Validate() error {
	if p.Epsilon <= 0 {
		return fmt.Errorf("dp: epsilon must be positive, got %v", p.Epsilon)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("dp: delta must be in (0,1), got %v", p.Delta)
	}
	return nil
}

// SigmaFactor returns the Gaussian noise multiplier σ such that adding
// N(0, (∆f·σ)²) noise gives (ε,δ)-differential privacy, from the paper's
// calibration (via Abadi et al.):
//
//	δ ≥ (4/5)·exp(−(σε)²/2)  ⇒  σ = sqrt(2·ln(4/(5δ)))/ε
//
// For δ = 1e−5 and ε = 1 this is ≈ 4.75, the value quoted in §IV-A.
func SigmaFactor(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	arg := 4 / (5 * p.Delta)
	if arg <= 1 {
		return 0, fmt.Errorf("dp: delta %v too large for the Gaussian tail bound", p.Delta)
	}
	return math.Sqrt(2*math.Log(arg)) / p.Epsilon, nil
}

// EpsilonFor inverts SigmaFactor: the ε achieved by a noise multiplier σ at
// failure probability δ.
func EpsilonFor(sigma, delta float64) (float64, error) {
	if sigma <= 0 {
		return 0, fmt.Errorf("dp: sigma must be positive, got %v", sigma)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("dp: delta must be in (0,1), got %v", delta)
	}
	arg := 4 / (5 * delta)
	if arg <= 1 {
		return 0, fmt.Errorf("dp: delta %v too large for the Gaussian tail bound", delta)
	}
	return math.Sqrt(2*math.Log(arg)) / sigma, nil
}

// GaussianMechanism adds N(0, (l2Sensitivity·σ)²) noise to every element of
// v in place, where σ comes from SigmaFactor(p) — paper Eq. 8.
func GaussianMechanism(src *hrand.Source, v []float64, l2Sensitivity float64, p Params) error {
	sigma, err := SigmaFactor(p)
	if err != nil {
		return err
	}
	if l2Sensitivity < 0 {
		return fmt.Errorf("dp: negative sensitivity %v", l2Sensitivity)
	}
	std := l2Sensitivity * sigma
	for i := range v {
		v[i] += src.Normal(0, std)
	}
	return nil
}

// LaplaceMechanism adds Lap(l1Sensitivity/ε) noise to every element of v in
// place, giving pure ε-differential privacy (paper Eq. 7 discussion, Dwork
// et al.). Prive-HD prefers the Gaussian mechanism because the ℓ2
// sensitivity of HD encodings is far smaller than the ℓ1.
func LaplaceMechanism(src *hrand.Source, v []float64, l1Sensitivity, epsilon float64) error {
	if epsilon <= 0 {
		return fmt.Errorf("dp: epsilon must be positive, got %v", epsilon)
	}
	if l1Sensitivity < 0 {
		return fmt.Errorf("dp: negative sensitivity %v", l1Sensitivity)
	}
	b := l1Sensitivity / epsilon
	for i := range v {
		v[i] += src.Laplace(0, b)
	}
	return nil
}

// PrivatizeModel perturbs every class hypervector of m in place with the
// Gaussian mechanism, rounds each noised coordinate to the nearest
// integer, and invalidates the model's cached norms. Rounding is
// post-processing, so the (ε,δ) guarantee is unchanged (Dwork & Roth 2014,
// Prop. 2.1); it moves a coordinate by at most 0.5, far below the noise
// std at any useful budget, and it puts every DP release on the exact
// integer scoring path (internal/intscore), sharded serving included. The
// sensitivity argument must bound the ℓ2 norm of any single encoding that
// was bundled into the model (use quant.AnalyticL2Sensitivity for quantized
// training or quant.RawL2Sensitivity otherwise).
//
// Note the output dimensionality of the mechanism is D_hv·|C| — all class
// hypervectors jointly (paper: "Both f and G are D_hv·|C| dimensions") —
// but adjacent datasets change only one class by one encoding, so the joint
// ℓ2 sensitivity equals the single-encoding bound used here.
func PrivatizeModel(src *hrand.Source, m *hdc.Model, l2Sensitivity float64, p Params) error {
	sigma, err := SigmaFactor(p)
	if err != nil {
		return err
	}
	if l2Sensitivity < 0 {
		return fmt.Errorf("dp: negative sensitivity %v", l2Sensitivity)
	}
	std := l2Sensitivity * sigma
	for l := 0; l < m.NumClasses(); l++ {
		c := m.Class(l)
		for j := range c {
			c[j] = math.Round(c[j] + src.Normal(0, std))
		}
	}
	m.InvalidateAll()
	return nil
}

// PrivatizeModelMasked is PrivatizeModel restricted to the dimensions where
// keep[j] is true: kept coordinates are noised and rounded, pruned ones are
// left untouched. Pruned dimensions carry no information — they are
// identically zero in the released model and the adversary knows the mask —
// so they need no noise; this is what makes pruning reduce the effective
// sensitivity (∆f ∝ sqrt(kept dimensions)).
func PrivatizeModelMasked(src *hrand.Source, m *hdc.Model, keep []bool, l2Sensitivity float64, p Params) error {
	if len(keep) != m.Dim() {
		return fmt.Errorf("dp: mask dim %d, model dim %d", len(keep), m.Dim())
	}
	sigma, err := SigmaFactor(p)
	if err != nil {
		return err
	}
	if l2Sensitivity < 0 {
		return fmt.Errorf("dp: negative sensitivity %v", l2Sensitivity)
	}
	std := l2Sensitivity * sigma
	for l := 0; l < m.NumClasses(); l++ {
		c := m.Class(l)
		for j := range c {
			if keep[j] {
				c[j] = math.Round(c[j] + src.Normal(0, std))
			}
		}
	}
	m.InvalidateAll()
	return nil
}

// NoiseStd returns the standard deviation ∆f·σ of the Gaussian noise that
// PrivatizeModel would apply — useful for reporting (the experiment report
// of cmd/privehd-experiments quotes it alongside each ε).
func NoiseStd(l2Sensitivity float64, p Params) (float64, error) {
	sigma, err := SigmaFactor(p)
	if err != nil {
		return 0, err
	}
	return l2Sensitivity * sigma, nil
}

// Compose returns the privacy parameters consumed by running k mechanisms
// with the given per-release parameters under basic (sequential)
// composition: ε and δ add. Prive-HD releases the model once, but the
// helper documents the cost of re-releasing (e.g. periodic retraining).
func Compose(p Params, k int) Params {
	return Params{Epsilon: p.Epsilon * float64(k), Delta: p.Delta * float64(k)}
}
