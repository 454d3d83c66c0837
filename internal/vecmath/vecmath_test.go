package vecmath

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"ones", []float64{1, 1, 1}, []float64{1, 1, 1}, 3},
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"signed", []float64{1, -2, 3}, []float64{4, 5, -6}, 4 - 10 - 18},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.want {
				t.Errorf("Dot = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestCheckedDot(t *testing.T) {
	if _, err := CheckedDot([]float64{1}, []float64{1, 2}); err != ErrLength {
		t.Errorf("CheckedDot error = %v, want ErrLength", err)
	}
	got, err := CheckedDot([]float64{2, 3}, []float64{4, 5})
	if err != nil || got != 23 {
		t.Errorf("CheckedDot = %v, %v; want 23, nil", got, err)
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := Norm2(v); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm1(v); got != 7 {
		t.Errorf("Norm1 = %v, want 7", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestCosine(t *testing.T) {
	a := []float64{1, 0, 0}
	b := []float64{2, 0, 0}
	if got := Cosine(a, b); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Cosine parallel = %v, want 1", got)
	}
	c := []float64{0, 1, 0}
	if got := Cosine(a, c); got != 0 {
		t.Errorf("Cosine orthogonal = %v, want 0", got)
	}
	if got := Cosine(a, []float64{0, 0, 0}); got != 0 {
		t.Errorf("Cosine with zero vector = %v, want 0", got)
	}
	d := []float64{-1, 0, 0}
	if got := Cosine(a, d); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Cosine antiparallel = %v, want -1", got)
	}
}

func TestCosineScaleInvariance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + rng.IntN(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		alpha := 0.1 + rng.Float64()*10
		scaled := Clone(a)
		Scale(scaled, alpha)
		return almostEqual(Cosine(a, b), Cosine(scaled, b), 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAddSubScaled(t *testing.T) {
	dst := []float64{1, 2, 3}
	Add(dst, []float64{1, 1, 1})
	want := []float64{2, 3, 4}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("Add: dst = %v, want %v", dst, want)
		}
	}
	Sub(dst, []float64{2, 3, 4})
	for i := range dst {
		if dst[i] != 0 {
			t.Fatalf("Sub: dst = %v, want zeros", dst)
		}
	}
	AddScaled(dst, 2, []float64{1, 2, 3})
	want = []float64{2, 4, 6}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("AddScaled: dst = %v, want %v", dst, want)
		}
	}
}

func TestScaleClone(t *testing.T) {
	v := []float64{1, -2}
	c := Clone(v)
	Scale(v, 3)
	if v[0] != 3 || v[1] != -6 {
		t.Errorf("Scale: v = %v", v)
	}
	if c[0] != 1 || c[1] != -2 {
		t.Errorf("Clone was aliased: c = %v", c)
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		v    []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{3, 3, 3}, 0}, // tie → lowest index
		{[]float64{-5, -1, -9}, 1},
	}
	for _, tt := range tests {
		if got := ArgMax(tt.v); got != tt.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := Mean(v); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Variance(v); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("Mean/Variance of empty should be 0")
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a := []float64{0, 1, 0, 1}
	b := []float64{0, 1, 0, 1}
	if got := MSE(a, b); got != 0 {
		t.Errorf("MSE identical = %v, want 0", got)
	}
	if got := PSNR(a, b, 1); !math.IsInf(got, 1) {
		t.Errorf("PSNR identical = %v, want +Inf", got)
	}
	c := []float64{1, 0, 1, 0}
	if got := MSE(a, c); got != 1 {
		t.Errorf("MSE opposite = %v, want 1", got)
	}
	// PSNR with peak 1 and MSE 1 is 0 dB.
	if got := PSNR(a, c, 1); !almostEqual(got, 0, 1e-12) {
		t.Errorf("PSNR = %v, want 0", got)
	}
	// Larger peak raises PSNR: peak 255, MSE 1 → 20*log10(255) ≈ 48.13.
	if got := PSNR(a, c, 255); !almostEqual(got, 48.1308, 1e-3) {
		t.Errorf("PSNR(peak 255) = %v, want ≈48.13", got)
	}
}

func TestFoldedNormalMean(t *testing.T) {
	// Zero-mean case reduces to sigma*sqrt(2/pi) — the form used in Eq. 11.
	sigma := 3.0
	want := sigma * math.Sqrt(2/math.Pi)
	if got := FoldedNormalMean(0, sigma); !almostEqual(got, want, 1e-12) {
		t.Errorf("FoldedNormalMean(0,%v) = %v, want %v", sigma, got, want)
	}
	// Degenerate sigma.
	if got := FoldedNormalMean(-2, 0); got != 2 {
		t.Errorf("FoldedNormalMean(-2,0) = %v, want 2", got)
	}
	// Large |mu|/sigma: folded mean approaches |mu|.
	if got := FoldedNormalMean(100, 1); !almostEqual(got, 100, 1e-6) {
		t.Errorf("FoldedNormalMean(100,1) = %v, want ≈100", got)
	}
}

func TestFoldedNormalMeanMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	const n = 200000
	mu, sigma := 1.5, 2.0
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(mu + sigma*rng.NormFloat64())
	}
	emp := s / n
	if got := FoldedNormalMean(mu, sigma); !almostEqual(got, emp, 0.02) {
		t.Errorf("FoldedNormalMean = %v, Monte Carlo = %v", got, emp)
	}
}

func TestNormalCDF(t *testing.T) {
	if got := NormalCDF(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("NormalCDF(0) = %v, want 0.5", got)
	}
	if got := NormalCDF(1.96); !almostEqual(got, 0.975, 1e-3) {
		t.Errorf("NormalCDF(1.96) = %v, want ≈0.975", got)
	}
	if got := NormalCDF(-8); got > 1e-10 {
		t.Errorf("NormalCDF(-8) = %v, want ≈0", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, tt := range tests {
		if got := Quantile(v, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
	// Quantile must not mutate its input.
	if v[0] != 4 || v[1] != 1 {
		t.Errorf("Quantile mutated input: %v", v)
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 1 + rng.IntN(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		s := Clone(v)
		sort.Float64s(s)
		return Quantile(v, 0) == s[0] && Quantile(v, 1) == s[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAbsRank(t *testing.T) {
	v := []float64{-5, 0.1, 3, -0.2}
	got := AbsRank(v)
	want := []int{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AbsRank = %v, want %v", got, want)
		}
	}
}

func TestAbsRankTiesByIndex(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := 1 + rng.IntN(150)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.IntN(9) - 4) // many ties, both signs
		}
		idx := AbsRank(v)
		for i := 1; i < n; i++ {
			a, b := math.Abs(v[idx[i-1]]), math.Abs(v[idx[i]])
			if a > b || a == b && idx[i-1] > idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAbsRankIsPermutationAndOrdered(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 1 + rng.IntN(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		idx := AbsRank(v)
		seen := make([]bool, n)
		for _, i := range idx {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		for i := 1; i < n; i++ {
			if math.Abs(v[idx[i-1]]) > math.Abs(v[idx[i]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDot10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 10000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}
