package dp

import (
	"math"
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/hrand"
)

func TestSigmaFactorPaperValue(t *testing.T) {
	// §IV-A: δ = 1e−5, ε = 1 → σ ≈ 4.75.
	sigma, err := SigmaFactor(Params{Epsilon: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sigma-4.75) > 0.02 {
		t.Errorf("sigma = %v, want ≈4.75", sigma)
	}
}

func TestSigmaFactorScaling(t *testing.T) {
	// σ ∝ 1/ε at fixed δ.
	s1, err := SigmaFactor(Params{Epsilon: 1, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SigmaFactor(Params{Epsilon: 2, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1/s2-2) > 1e-9 {
		t.Errorf("sigma ratio = %v, want 2", s1/s2)
	}
	// Smaller δ needs larger σ.
	s3, err := SigmaFactor(Params{Epsilon: 1, Delta: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if s3 <= s1 {
		t.Errorf("smaller delta should need more noise: %v vs %v", s3, s1)
	}
}

func TestSigmaEpsilonRoundTrip(t *testing.T) {
	p := Params{Epsilon: 2.5, Delta: 1e-5}
	sigma, err := SigmaFactor(p)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := EpsilonFor(sigma, p.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-p.Epsilon) > 1e-9 {
		t.Errorf("round trip epsilon = %v, want %v", eps, p.Epsilon)
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, Delta: 1e-5},
		{Epsilon: -1, Delta: 1e-5},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 1},
		{Epsilon: 1, Delta: 2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should fail validation", p)
		}
		if _, err := SigmaFactor(p); err == nil {
			t.Errorf("SigmaFactor(%+v) should fail", p)
		}
	}
	// δ large enough to break the tail bound (4/(5δ) ≤ 1 ⇔ δ ≥ 0.8).
	if _, err := SigmaFactor(Params{Epsilon: 1, Delta: 0.9}); err == nil {
		t.Error("SigmaFactor should reject delta ≥ 0.8")
	}
	if _, err := EpsilonFor(0, 1e-5); err == nil {
		t.Error("EpsilonFor should reject sigma = 0")
	}
	if _, err := EpsilonFor(1, 0); err == nil {
		t.Error("EpsilonFor should reject delta = 0")
	}
}

func TestGaussianMechanismMoments(t *testing.T) {
	src := hrand.New(1)
	const n = 100000
	v := make([]float64, n)
	p := Params{Epsilon: 1, Delta: 1e-5}
	sens := 2.0
	if err := GaussianMechanism(src, v, sens, p); err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for _, x := range v {
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	sigma, _ := SigmaFactor(p)
	want := sens * sigma
	if math.Abs(mean) > 0.15 {
		t.Errorf("noise mean = %v, want ≈0", mean)
	}
	if math.Abs(std-want)/want > 0.03 {
		t.Errorf("noise std = %v, want ≈%v", std, want)
	}
}

func TestGaussianMechanismErrors(t *testing.T) {
	src := hrand.New(2)
	if err := GaussianMechanism(src, []float64{1}, -1, Params{Epsilon: 1, Delta: 1e-5}); err == nil {
		t.Error("expected error for negative sensitivity")
	}
	if err := GaussianMechanism(src, []float64{1}, 1, Params{}); err == nil {
		t.Error("expected error for zero params")
	}
}

func TestLaplaceMechanismMoments(t *testing.T) {
	src := hrand.New(3)
	const n = 200000
	v := make([]float64, n)
	sens, eps := 3.0, 2.0
	if err := LaplaceMechanism(src, v, sens, eps); err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for _, x := range v {
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	b := sens / eps
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-2*b*b)/(2*b*b) > 0.05 {
		t.Errorf("variance = %v, want ≈%v", variance, 2*b*b)
	}
}

func TestLaplaceMechanismErrors(t *testing.T) {
	src := hrand.New(4)
	if err := LaplaceMechanism(src, []float64{1}, 1, 0); err == nil {
		t.Error("expected error for zero epsilon")
	}
	if err := LaplaceMechanism(src, []float64{1}, -1, 1); err == nil {
		t.Error("expected error for negative sensitivity")
	}
}

func TestPrivatizeModelPerturbsEveryClass(t *testing.T) {
	src := hrand.New(5)
	m := hdc.NewModel(3, 50)
	for l := 0; l < 3; l++ {
		m.Add(l, src.NormalVec(50, 0, 1))
	}
	before := make([][]float64, 3)
	for l := range before {
		before[l] = append([]float64(nil), m.Class(l)...)
	}
	if err := PrivatizeModel(src, m, 1, Params{Epsilon: 1, Delta: 1e-5}); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		changed := false
		for j, v := range m.Class(l) {
			if v != before[l][j] {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("class %d unchanged by privatizer", l)
		}
	}
}

func TestPrivatizeModelNoiseScale(t *testing.T) {
	// Empirical noise std across a large model must match ∆f·σ.
	src := hrand.New(6)
	const dim = 20000
	m := hdc.NewModel(1, dim)
	m.Add(0, make([]float64, dim)) // zero class: output is pure noise
	p := Params{Epsilon: 2, Delta: 1e-5}
	sens := 5.0
	if err := PrivatizeModel(src, m, sens, p); err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	for j, v := range m.Class(0) {
		if v != math.Round(v) {
			t.Fatalf("dim %d released %v, want an integer", j, v)
		}
		sumSq += v * v
	}
	std := math.Sqrt(sumSq / dim)
	want, err := NoiseStd(sens, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(std-want)/want > 0.05 {
		t.Errorf("noise std = %v, want ≈%v", std, want)
	}
}

func TestPrivatizeModelMasked(t *testing.T) {
	// Kept dimensions are noised and rounded to integers, at the noise std
	// of PrivatizeModel (σ ≫ 1, so rounding barely moves it); pruned
	// dimensions stay exactly 0.
	src := hrand.New(7)
	const dim = 20000
	m := hdc.NewModel(1, dim)
	m.Add(0, make([]float64, dim))
	keep := make([]bool, dim)
	for j := 0; j < dim/2; j++ {
		keep[j] = true
	}
	p := Params{Epsilon: 2, Delta: 1e-5}
	sens := 5.0
	if err := PrivatizeModelMasked(src, m, keep, sens, p); err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	for j, v := range m.Class(0) {
		if v != math.Round(v) {
			t.Fatalf("dim %d released %v, want an integer", j, v)
		}
		if !keep[j] && v != 0 {
			t.Fatalf("pruned dim %d got noise: %v", j, v)
		}
		sumSq += v * v
	}
	std := math.Sqrt(sumSq / (dim / 2))
	want, err := NoiseStd(sens, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(std-want)/want > 0.05 {
		t.Errorf("kept-dimension noise std = %v, want ≈%v", std, want)
	}
}

func TestPrivatizeModelMaskedDimCheck(t *testing.T) {
	m := hdc.NewModel(1, 4)
	err := PrivatizeModelMasked(hrand.New(8), m, []bool{true}, 1, Params{Epsilon: 1, Delta: 1e-5})
	if err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestPrivacyAccuracyTradeoff(t *testing.T) {
	// End-to-end sanity: on a separable task, a loose budget (ε=8) must
	// retain much more accuracy than a tight one (ε=0.05) at the same
	// sensitivity — the Fig. 8 phenomenon in miniature.
	build := func() (*hdc.Model, [][]float64, []int) {
		src := hrand.New(9)
		const classes, dim = 4, 2000
		protos := make([][]float64, classes)
		for c := range protos {
			protos[c] = src.NormalVec(dim, 0, 1)
		}
		var encoded [][]float64
		var labels []int
		for i := 0; i < 200; i++ {
			c := i % classes
			h := make([]float64, dim)
			for j := range h {
				h[j] = protos[c][j] + src.Normal(0, 0.8)
			}
			encoded = append(encoded, h)
			labels = append(labels, c)
		}
		m, err := hdc.Train(encoded, labels, classes, dim)
		if err != nil {
			t.Fatal(err)
		}
		return m, encoded, labels
	}
	accAt := func(eps float64) float64 {
		m, encoded, labels := build()
		src := hrand.New(10)
		// Sensitivity of one bundled encoding ≈ its norm; use a bound.
		if err := PrivatizeModel(src, m, 50, Params{Epsilon: eps, Delta: 1e-5}); err != nil {
			t.Fatal(err)
		}
		return hdc.Evaluate(m, encoded, labels)
	}
	loose := accAt(8)
	tight := accAt(0.05)
	if loose <= tight {
		t.Errorf("loose budget accuracy %v should beat tight %v", loose, tight)
	}
	if loose < 0.9 {
		t.Errorf("loose budget accuracy %v unexpectedly low", loose)
	}
}

func TestCompose(t *testing.T) {
	p := Compose(Params{Epsilon: 1, Delta: 1e-5}, 3)
	if p.Epsilon != 3 || math.Abs(p.Delta-3e-5) > 1e-18 {
		t.Errorf("Compose = %+v", p)
	}
}

func TestNoiseStdErrors(t *testing.T) {
	if _, err := NoiseStd(1, Params{}); err == nil {
		t.Error("expected error for invalid params")
	}
}
