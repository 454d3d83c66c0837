package hdc

import (
	"math"
	"testing"
	"testing/quick"

	"privehd/internal/hrand"
	"privehd/internal/vecmath"
)

func TestLevelIndex(t *testing.T) {
	tests := []struct {
		v      float64
		levels int
		want   int
	}{
		{-0.5, 10, 0},
		{0, 10, 0},
		{0.05, 10, 0},
		{0.15, 10, 1},
		{0.95, 10, 9},
		{1, 10, 9},
		{1.5, 10, 9},
		{0.5, 2, 1},
		{0.49, 2, 0},
		{math.NaN(), 10, 0},
		{math.Inf(1), 10, 9},
		{math.Inf(-1), 10, 0},
		{1e300, 10, 9},
	}
	for _, tt := range tests {
		if got := LevelIndex(tt.v, tt.levels); got != tt.want {
			t.Errorf("LevelIndex(%v, %d) = %d, want %d", tt.v, tt.levels, got, tt.want)
		}
	}
}

func TestLevelIndexAlwaysInRange(t *testing.T) {
	f := func(v float64, levels uint8) bool {
		l := int(levels%62) + 2
		idx := LevelIndex(v, l)
		return idx >= 0 && idx < l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevelValue(t *testing.T) {
	if got := LevelValue(0, 10); got != 0 {
		t.Errorf("LevelValue(0,10) = %v, want 0", got)
	}
	if got := LevelValue(9, 10); got != 1 {
		t.Errorf("LevelValue(9,10) = %v, want 1", got)
	}
	if got := LevelValue(1, 2); got != 1 {
		t.Errorf("LevelValue(1,2) = %v, want 1", got)
	}
	if got := LevelValue(0, 1); got != 0 {
		t.Errorf("LevelValue(0,1) = %v, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := Config{Dim: 100, Features: 10, Levels: 4, Seed: 1}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Dim: 0, Features: 10, Levels: 4},
		{Dim: 100, Features: 0, Levels: 4},
		{Dim: 100, Features: 10, Levels: 1},
		{Dim: -5, Features: 10, Levels: 4},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be rejected", bad)
		}
	}
}

func TestNewEncodersRejectBadConfig(t *testing.T) {
	if _, err := NewScalarEncoder(Config{}); err == nil {
		t.Error("NewScalarEncoder accepted zero config")
	}
	if _, err := NewLevelEncoder(Config{}); err == nil {
		t.Error("NewLevelEncoder accepted zero config")
	}
}

func mustScalar(t *testing.T, cfg Config) *ScalarEncoder {
	t.Helper()
	e, err := NewScalarEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustLevel(t *testing.T, cfg Config) *LevelEncoder {
	t.Helper()
	e, err := NewLevelEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScalarEncodeLinearity(t *testing.T) {
	// Eq. 2a is linear in the level values: encoding a one-hot feature
	// vector returns exactly f · B_k.
	cfg := Config{Dim: 500, Features: 8, Levels: 11, Seed: 42}
	e := mustScalar(t, cfg)
	features := make([]float64, cfg.Features)
	features[3] = 1 // level 10, value 1.0
	h := e.Encode(features)
	base := e.BaseInto(3, make([]float64, cfg.Dim))
	for j := range h {
		if h[j] != base[j] {
			t.Fatalf("one-hot encoding should equal the base at dim %d: %v vs %v", j, h[j], base[j])
		}
	}
}

func TestScalarEncodeSuperposition(t *testing.T) {
	cfg := Config{Dim: 400, Features: 6, Levels: 5, Seed: 7}
	e := mustScalar(t, cfg)
	a := []float64{1, 0, 0, 0, 0, 0}
	b := []float64{0, 0, 1, 0, 0, 0}
	ab := []float64{1, 0, 1, 0, 0, 0}
	ha, hb, hab := e.Encode(a), e.Encode(b), e.Encode(ab)
	for j := range hab {
		if math.Abs(hab[j]-(ha[j]+hb[j])) > 1e-12 {
			t.Fatalf("superposition violated at dim %d", j)
		}
	}
}

func TestScalarEncodeDeterministic(t *testing.T) {
	cfg := Config{Dim: 300, Features: 5, Levels: 4, Seed: 9}
	e1 := mustScalar(t, cfg)
	e2 := mustScalar(t, cfg)
	in := []float64{0.1, 0.9, 0.5, 0.3, 0.7}
	h1, h2 := e1.Encode(in), e2.Encode(in)
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatal("same config+seed must encode identically")
		}
	}
}

func TestScalarEncodePanicsOnWrongLength(t *testing.T) {
	e := mustScalar(t, Config{Dim: 100, Features: 4, Levels: 4, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Encode([]float64{1, 2})
}

func TestLevelEncodeValuesBounded(t *testing.T) {
	// Every dimension of an Eq. 2b encoding is a sum of D_iv ±1 terms.
	cfg := Config{Dim: 256, Features: 20, Levels: 8, Seed: 3}
	e := mustLevel(t, cfg)
	src := hrand.New(10)
	in := make([]float64, cfg.Features)
	for i := range in {
		in[i] = src.Float64()
	}
	h := e.Encode(in)
	if len(h) != cfg.Dim {
		t.Fatalf("encoding dim = %d", len(h))
	}
	for j, v := range h {
		if math.Abs(v) > float64(cfg.Features) {
			t.Fatalf("dim %d magnitude %v exceeds D_iv", j, v)
		}
		// Parity: sum of D_iv odd/even ±1 terms has D_iv's parity.
		if int(math.Abs(v))%2 != cfg.Features%2 {
			t.Fatalf("dim %d value %v has wrong parity", j, v)
		}
	}
}

func TestLevelEncodeMatchesNaive(t *testing.T) {
	// The packed XNOR path must equal the naive float implementation
	// h[j] = Σ_k L[lvl_k][j] * B_k[j].
	cfg := Config{Dim: 128, Features: 10, Levels: 4, Seed: 21}
	e := mustLevel(t, cfg)
	src := hrand.New(22)
	in := make([]float64, cfg.Features)
	for i := range in {
		in[i] = src.Float64()
	}
	got := e.Encode(in)
	want := make([]float64, cfg.Dim)
	seed := hrand.New(cfg.Seed)
	base := itemWords(seed.Split(0), cfg.Features, cfg.Dim)
	lvl := levelWords(seed.Split(1), cfg.Levels, cfg.Dim)
	for k, v := range in {
		l := lvl[LevelIndex(v, cfg.Levels)]
		for j := range want {
			want[j] += sign(l, j) * sign(base[k], j)
		}
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("dim %d: packed %v vs naive %v", j, got[j], want[j])
		}
	}
}

func TestLevelEncodeSimilarInputsSimilarCodes(t *testing.T) {
	// Level encoding must preserve closeness: nearby feature vectors have
	// higher-cosine encodings than distant ones.
	cfg := Config{Dim: 4000, Features: 30, Levels: 20, Seed: 5}
	e := mustLevel(t, cfg)
	src := hrand.New(23)
	a := make([]float64, cfg.Features)
	for i := range a {
		a[i] = src.Float64()
	}
	near := make([]float64, cfg.Features)
	far := make([]float64, cfg.Features)
	for i := range a {
		near[i] = math.Min(1, a[i]+0.05)
		far[i] = 1 - a[i]
	}
	ha, hn, hf := e.Encode(a), e.Encode(near), e.Encode(far)
	cosNear := vecmath.Cosine(ha, hn)
	cosFar := vecmath.Cosine(ha, hf)
	if cosNear <= cosFar {
		t.Errorf("near cosine %v should exceed far cosine %v", cosNear, cosFar)
	}
	if cosNear < 0.5 {
		t.Errorf("near cosine %v unexpectedly low", cosNear)
	}
}

func TestBitPlanesMajorityEqualsSignOfEncoding(t *testing.T) {
	cfg := Config{Dim: 200, Features: 15, Levels: 6, Seed: 31}
	e := mustLevel(t, cfg)
	src := hrand.New(32)
	in := make([]float64, cfg.Features)
	for i := range in {
		in[i] = src.Float64()
	}
	h := e.Encode(in)
	planes := e.BitPlanes(in)
	if len(planes) != cfg.Features {
		t.Fatalf("planes = %d", len(planes))
	}
	for j := 0; j < cfg.Dim; j++ {
		var sum float64
		for _, p := range planes {
			sum += p.Sign(j)
		}
		if sum != h[j] {
			t.Fatalf("plane sum %v != encoding %v at dim %d", sum, h[j], j)
		}
	}
}

func TestEncodeBatchMatchesSequential(t *testing.T) {
	cfg := Config{Dim: 256, Features: 12, Levels: 8, Seed: 41}
	for _, mk := range []func() Encoder{
		func() Encoder { return mustScalar(t, cfg) },
		func() Encoder { return mustLevel(t, cfg) },
	} {
		e := mk()
		src := hrand.New(42)
		X := make([][]float64, 37)
		for i := range X {
			X[i] = make([]float64, cfg.Features)
			for k := range X[i] {
				X[i][k] = src.Float64()
			}
		}
		batch := EncodeBatch(e, X, 4)
		for i := range X {
			seq := e.Encode(X[i])
			for j := range seq {
				if batch[i][j] != seq[j] {
					t.Fatalf("batch/sequential mismatch sample %d dim %d", i, j)
				}
			}
		}
	}
}

func TestEncodeBatchEmpty(t *testing.T) {
	e := mustScalar(t, Config{Dim: 64, Features: 4, Levels: 4, Seed: 1})
	if got := EncodeBatch(e, nil, 4); got != nil {
		t.Errorf("EncodeBatch(nil) = %v, want nil", got)
	}
}

func TestEncodeIntoMatchesEncode(t *testing.T) {
	cfg := Config{Dim: 256, Features: 12, Levels: 8, Seed: 3}
	x := make([]float64, cfg.Features)
	for k := range x {
		x[k] = float64(k) / float64(cfg.Features)
	}
	le, err := NewLevelEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewScalarEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []Encoder{le, se} {
		want := enc.Encode(x)
		// A dirty buffer must be fully overwritten.
		buf := make([]float64, cfg.Dim)
		for j := range buf {
			buf[j] = -999
		}
		got := enc.EncodeInto(x, buf)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("EncodeInto[%d] = %v, Encode = %v", j, got[j], want[j])
			}
		}
	}
}
