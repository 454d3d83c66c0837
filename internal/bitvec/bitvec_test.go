package bitvec

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"privehd/internal/vecmath"
)

func randomVector(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.IntN(2) == 1)
	}
	return v
}

func TestNewAllMinusOne(t *testing.T) {
	v := New(100)
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := 0; i < 100; i++ {
		if v.Get(i) {
			t.Fatalf("fresh vector has +1 at %d", i)
		}
		if v.Sign(i) != -1 {
			t.Fatalf("Sign(%d) = %v", i, v.Sign(i))
		}
	}
	if v.PopCount() != 0 {
		t.Errorf("PopCount = %d", v.PopCount())
	}
}

func TestSetGet(t *testing.T) {
	v := New(130) // spans three words
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	for _, i := range []int{0, 64, 129} {
		if !v.Get(i) {
			t.Errorf("Get(%d) = false after Set", i)
		}
	}
	if v.PopCount() != 3 {
		t.Errorf("PopCount = %d, want 3", v.PopCount())
	}
	v.Set(0, false)
	if v.Get(0) {
		t.Error("Set(0,false) did not clear")
	}
}

func TestBoundsPanics(t *testing.T) {
	v := New(10)
	for _, f := range []func(){
		func() { v.Get(10) },
		func() { v.Get(-1) },
		func() { v.Set(10, true) },
		func() { v.Set(-1, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected out-of-range panic")
				}
			}()
			f()
		}()
	}
}

func TestFromFloatsRoundTrip(t *testing.T) {
	in := []float64{1, -1, 1, 1, -1, -1, 1}
	v := FromFloats(in)
	out := v.Floats()
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, in[i], out[i])
		}
	}
	// Zero maps to −1 by convention.
	z := FromFloats([]float64{0})
	if z.Get(0) {
		t.Error("FromFloats(0) should map to −1")
	}
}

func TestXnorTruthTable(t *testing.T) {
	a := FromFloats([]float64{1, 1, -1, -1})
	b := FromFloats([]float64{1, -1, 1, -1})
	got := Xnor(a, b).Floats()
	want := []float64{1, -1, -1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Xnor = %v, want %v", got, want)
		}
	}
}

func TestXnorMatchesFloatProduct(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + rng.IntN(300)
		a := randomVector(rng, n)
		b := randomVector(rng, n)
		x := Xnor(a, b)
		fa, fb := a.Floats(), b.Floats()
		for i := 0; i < n; i++ {
			if x.Sign(i) != fa[i]*fb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDotMatchesFloatDot(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		n := 1 + rng.IntN(500)
		a := randomVector(rng, n)
		b := randomVector(rng, n)
		want := int(vecmath.Dot(a.Floats(), b.Floats()))
		return Dot(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDotSelf(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		v := randomVector(rng, n)
		if got := Dot(v, v); got != n {
			t.Errorf("Dot(v,v) with n=%d = %d, want %d", n, got, n)
		}
	}
}

func TestHamming(t *testing.T) {
	a := FromFloats([]float64{1, 1, 1, 1})
	b := FromFloats([]float64{1, -1, 1, -1})
	if got := Hamming(a, b); got != 2 {
		t.Errorf("Hamming = %d, want 2", got)
	}
	if got := Hamming(a, a); got != 0 {
		t.Errorf("Hamming(a,a) = %d, want 0", got)
	}
}

func TestHammingDotIdentity(t *testing.T) {
	// For bipolar vectors: dot = n − 2·hamming.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 1 + rng.IntN(400)
		a := randomVector(rng, n)
		b := randomVector(rng, n)
		return Dot(a, b) == n-2*Hamming(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCosine(t *testing.T) {
	a := FromFloats([]float64{1, 1, 1, 1})
	if got := Cosine(a, a); got != 1 {
		t.Errorf("Cosine(a,a) = %v, want 1", got)
	}
	b := FromFloats([]float64{-1, -1, -1, -1})
	if got := Cosine(a, b); got != -1 {
		t.Errorf("Cosine(a,-a) = %v, want -1", got)
	}
	if got := Cosine(New(0), New(0)); got != 0 {
		t.Errorf("Cosine empty = %v, want 0", got)
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	v := randomVector(rng, 200)
	c := v.Clone()
	if Hamming(v, c) != 0 {
		t.Fatal("clone differs from original")
	}
	c.Set(5, !c.Get(5))
	if Hamming(v, c) != 1 {
		t.Error("clone shares storage with original")
	}
}

func TestAccumulateInto(t *testing.T) {
	v := FromFloats([]float64{1, -1, 1})
	acc := []float64{10, 10, 10}
	v.AccumulateInto(acc)
	want := []float64{11, 9, 11}
	for i := range want {
		if acc[i] != want[i] {
			t.Fatalf("acc = %v, want %v", acc, want)
		}
	}
}

func TestMajorityExact(t *testing.T) {
	vs := []*Vector{
		FromFloats([]float64{1, 1, -1, -1}),
		FromFloats([]float64{1, -1, -1, 1}),
		FromFloats([]float64{1, 1, -1, -1}),
	}
	got := Majority(vs, true).Floats()
	want := []float64{1, 1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Majority = %v, want %v", got, want)
		}
	}
}

func TestMajorityTieBreak(t *testing.T) {
	vs := []*Vector{
		FromFloats([]float64{1, -1}),
		FromFloats([]float64{-1, 1}),
	}
	up := Majority(vs, true)
	if !up.Get(0) || !up.Get(1) {
		t.Error("tieUp=true should resolve ties to +1")
	}
	down := Majority(vs, false)
	if down.Get(0) || down.Get(1) {
		t.Error("tieUp=false should resolve ties to −1")
	}
}

func TestMajorityMatchesFloatSign(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 8))
		n := 1 + rng.IntN(100)
		k := 1 + 2*rng.IntN(5) // odd count: no ties
		vs := make([]*Vector, k)
		for i := range vs {
			vs[i] = randomVector(rng, n)
		}
		maj := Majority(vs, true)
		for i := 0; i < n; i++ {
			var sum float64
			for _, v := range vs {
				sum += v.Sign(i)
			}
			want := sum > 0
			if maj.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRotate(t *testing.T) {
	v := FromFloats([]float64{1, -1, -1, -1})
	r := Rotate(v, 1)
	want := []float64{-1, 1, -1, -1}
	for i, w := range want {
		if r.Sign(i) != w {
			t.Fatalf("Rotate(1) = %v, want %v", r.Floats(), want)
		}
	}
	// Negative rotation is the inverse.
	back := Rotate(r, -1)
	if Hamming(v, back) != 0 {
		t.Error("Rotate(-1) did not invert Rotate(1)")
	}
	// Full-cycle rotation is the identity.
	if Hamming(v, Rotate(v, 4)) != 0 {
		t.Error("Rotate(n) should be identity")
	}
	// Zero-length vector.
	z := Rotate(New(0), 3)
	if z.Len() != 0 {
		t.Error("Rotate of empty vector")
	}
}

func TestRotatePreservesStructure(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		n := 1 + rng.IntN(200)
		k := rng.IntN(3*n) - n
		a := randomVector(rng, n)
		b := randomVector(rng, n)
		ra, rb := Rotate(a, k), Rotate(b, k)
		// Rotation preserves popcount and pairwise dot products.
		return ra.PopCount() == a.PopCount() && Dot(ra, rb) == Dot(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRotateComposition(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 37))
		n := 1 + rng.IntN(150)
		j, k := rng.IntN(n), rng.IntN(n)
		v := randomVector(rng, n)
		return Hamming(Rotate(Rotate(v, j), k), Rotate(v, j+k)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	v := FromFloats([]float64{1, -1, 1})
	if got := v.String(); got != "+-+" {
		t.Errorf("String = %q, want %q", got, "+-+")
	}
	long := New(100)
	if got := long.String(); got == "" {
		t.Error("long String should summarize, not be empty")
	}
}

func TestTailMaskingAfterXnor(t *testing.T) {
	// 70 dims: second word has 6 used bits. XNOR sets tail bits to 1
	// internally; maskTail must clear them so PopCount stays exact.
	a := New(70)
	b := New(70)
	x := Xnor(a, b) // all agreements → all +1 in range
	if got := x.PopCount(); got != 70 {
		t.Errorf("PopCount after Xnor = %d, want 70", got)
	}
	if got := Dot(a, b); got != 70 {
		t.Errorf("Dot of equal vectors = %d, want 70", got)
	}
}

func BenchmarkDot10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 10))
	x := randomVector(rng, 10000)
	y := randomVector(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkXnor10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(11, 12))
	x := randomVector(rng, 10000)
	y := randomVector(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Xnor(x, y)
	}
}
