package quant

import (
	"math"
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/hrand"
)

func TestRawSensitivities(t *testing.T) {
	// The paper's worked example: ISOLET has D_iv = 617 features at
	// D_hv = 10^4, giving ∆f₂ = sqrt(10^4 · 617) ≈ 2484.
	if got := RawL2Sensitivity(10000, 617); math.Abs(got-2484) > 1 {
		t.Errorf("RawL2Sensitivity = %v, want ≈2484", got)
	}
	// "for a modest 200-features input the ℓ2 sensitivity is 10^3·sqrt(2)"
	if got := RawL2Sensitivity(10000, 200); math.Abs(got-1000*math.Sqrt2) > 1e-9 {
		t.Errorf("RawL2Sensitivity(10k,200) = %v, want 1000·sqrt(2)", got)
	}
	// Eq. 11 at the same geometry.
	want := math.Sqrt(2*617/math.Pi) * 10000
	if got := RawL1Sensitivity(10000, 617); math.Abs(got-want) > 1e-6 {
		t.Errorf("RawL1Sensitivity = %v, want %v", got, want)
	}
}

func TestAnalyticL2PaperValues(t *testing.T) {
	// Fig. 5b values at D_hv = 10,000.
	tests := []struct {
		q    Quantizer
		dhv  int
		want float64
	}{
		{Bipolar{}, 10000, 100},                        // sqrt(D)
		{Ternary{}, 10000, math.Sqrt(2.0 / 3 * 10000)}, // ≈81.6
		{BiasedTernary{}, 10000, math.Sqrt(10000.0 / 2)},
		{TwoBit{}, 10000, math.Sqrt(1.5 * 10000)}, // ≈122.5
		// The combined quantization+pruning result quoted in §III-B2:
		// biased ternary at 1,000 dims → ∆f = 22.36 ≈ 22.3.
		{BiasedTernary{}, 1000, math.Sqrt(500)},
	}
	for _, tt := range tests {
		got := AnalyticL2Sensitivity(tt.q, tt.dhv)
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("%s@%d: sensitivity = %v, want %v", tt.q.Name(), tt.dhv, got, tt.want)
		}
	}
}

func TestAnalyticL2Ordering(t *testing.T) {
	// Fig. 5b ordering at any fixed dimension:
	// biased ternary < ternary < bipolar < 2-bit.
	d := 5000
	bt := AnalyticL2Sensitivity(BiasedTernary{}, d)
	tn := AnalyticL2Sensitivity(Ternary{}, d)
	bp := AnalyticL2Sensitivity(Bipolar{}, d)
	tb := AnalyticL2Sensitivity(TwoBit{}, d)
	if !(bt < tn && tn < bp && bp < tb) {
		t.Errorf("ordering violated: biased=%v ternary=%v bipolar=%v 2bit=%v", bt, tn, bp, tb)
	}
}

func TestAnalyticL2Identity(t *testing.T) {
	if got := AnalyticL2Sensitivity(Identity{}, 100); !math.IsNaN(got) {
		t.Errorf("Identity sensitivity = %v, want NaN", got)
	}
}

func TestBiasedTernaryGain(t *testing.T) {
	got := BiasedTernaryGain()
	if math.Abs(got-0.866) > 0.001 {
		t.Errorf("gain = %v, want ≈0.866 (paper: 0.87×)", got)
	}
	// Must equal the ratio of the analytic sensitivities.
	d := 7777
	ratio := AnalyticL2Sensitivity(BiasedTernary{}, d) / AnalyticL2Sensitivity(Ternary{}, d)
	if math.Abs(got-ratio) > 1e-9 {
		t.Errorf("gain %v does not match sensitivity ratio %v", got, ratio)
	}
}

func TestEmpiricalMatchesAnalytic(t *testing.T) {
	// Quantized encodings of real (synthetic) inputs must have ℓ2 norms
	// close to the Eq. 14 analytic value — the whole point of the formula.
	cfg := hdc.Config{Dim: 4000, Features: 60, Levels: 10, Seed: 77}
	enc, err := hdc.NewLevelEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := hrand.New(78)
	X := make([][]float64, 20)
	for i := range X {
		X[i] = make([]float64, cfg.Features)
		for k := range X[i] {
			X[i][k] = src.Float64()
		}
	}
	encodings := hdc.EncodeBatch(enc, X, 0)
	for _, q := range Schemes() {
		quantized := QuantizeBatch(q, encodings)
		emp := EmpiricalL2Sensitivity(quantized)
		ana := AnalyticL2Sensitivity(q, cfg.Dim)
		if math.Abs(emp-ana)/ana > 0.1 {
			t.Errorf("%s: empirical %v vs analytic %v differ > 10%%", q.Name(), emp, ana)
		}
	}
}

func TestEmpiricalRawMatchesEq12(t *testing.T) {
	// Unquantized encodings should have ℓ2 norm ≈ sqrt(D_hv · D_iv).
	cfg := hdc.Config{Dim: 4000, Features: 100, Levels: 10, Seed: 79}
	enc, err := hdc.NewLevelEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := hrand.New(80)
	X := make([][]float64, 10)
	for i := range X {
		X[i] = make([]float64, cfg.Features)
		for k := range X[i] {
			X[i][k] = src.Float64()
		}
	}
	encodings := hdc.EncodeBatch(enc, X, 0)
	emp := EmpiricalL2Sensitivity(encodings)
	ana := RawL2Sensitivity(cfg.Dim, cfg.Features)
	if math.Abs(emp-ana)/ana > 0.15 {
		t.Errorf("empirical raw %v vs Eq.12 %v differ > 15%%", emp, ana)
	}
}

func TestEmpiricalEmpty(t *testing.T) {
	if got := EmpiricalL2Sensitivity(nil); got != 0 {
		t.Errorf("EmpiricalL2Sensitivity(nil) = %v, want 0", got)
	}
}

func TestOccupancyMatchesDesign(t *testing.T) {
	h := hrand.New(90).NormalVec(12000, 0, 10)
	for _, q := range Schemes() {
		occ := Occupancy(q, q.Quantize(h))
		design := q.Probabilities()
		if len(occ) != len(design) {
			t.Fatalf("%s: occupancy len %d vs %d", q.Name(), len(occ), len(design))
		}
		var total float64
		for i := range occ {
			total += occ[i]
			if math.Abs(occ[i]-design[i]) > 0.02 {
				t.Errorf("%s symbol %v: occupancy %v vs design %v",
					q.Name(), q.Alphabet()[i], occ[i], design[i])
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: occupancies sum to %v", q.Name(), total)
		}
	}
}

func TestOccupancyEdgeCases(t *testing.T) {
	if Occupancy(Identity{}, []float64{1, 2}) != nil {
		t.Error("Identity occupancy should be nil")
	}
	if Occupancy(Bipolar{}, nil) != nil {
		t.Error("empty vector occupancy should be nil")
	}
}

func TestQuantizeBatch(t *testing.T) {
	encs := [][]float64{{1, -1, 0.5}, {-3, 2, 0}}
	got := QuantizeBatch(Bipolar{}, encs)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != 1 && got[i][j] != -1 {
				t.Fatalf("non-bipolar output %v", got[i][j])
			}
		}
	}
	// Inputs untouched.
	if encs[0][2] != 0.5 {
		t.Error("QuantizeBatch mutated input")
	}
}
