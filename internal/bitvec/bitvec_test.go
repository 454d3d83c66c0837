package bitvec

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randomVector(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.IntN(2) == 1)
	}
	return v
}

// fromSigns packs a ±1 float vector: values > 0 map to +1, the rest to −1.
func fromSigns(v []float64) *Vector {
	out := New(len(v))
	for i, x := range v {
		out.Set(i, x > 0)
	}
	return out
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

func TestXnorTruthTable(t *testing.T) {
	a := fromSigns([]float64{1, 1, -1, -1})
	b := fromSigns([]float64{1, -1, 1, -1})
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

func TestString(t *testing.T) {
	v := fromSigns([]float64{1, -1, 1})
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
