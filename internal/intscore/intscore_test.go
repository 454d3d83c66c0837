package intscore_test

import (
	"math"
	"math/rand"
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/intscore"
	"privehd/internal/quant"
	"privehd/internal/vecmath"
)

// refScores is the float64-expansion reference the engine must match: expand
// the packed query, then compute exactly what hdc.Model.ScoresInto computes
// (vecmath.Dot / vecmath.Norm2 per class, −Inf for empty classes).
func refScores(classes [][]float64, q []int8) []float64 {
	v := make([]float64, len(q))
	for i, s := range q {
		v[i] = float64(s)
	}
	out := make([]float64, len(classes))
	for l, c := range classes {
		n := vecmath.Norm2(c)
		if n == 0 {
			out[l] = math.Inf(-1)
			continue
		}
		out[l] = vecmath.Dot(v, c) / n
	}
	return out
}

// alphabets the packed wire can carry, per quantization scheme.
func alphabets() map[string][]int8 {
	out := map[string][]int8{}
	for _, q := range quant.Schemes() {
		syms := make([]int8, 0, 4)
		for _, v := range q.Alphabet() {
			syms = append(syms, int8(v))
		}
		out[q.Name()] = syms
	}
	return out
}

// randPacked draws a query over the given alphabet.
func randPacked(rng *rand.Rand, dim int, alphabet []int8) []int8 {
	q := make([]int8, dim)
	for i := range q {
		q[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return q
}

// randIntClasses builds integer-valued class prototypes with |v| ≤ mag —
// what bundling mag/2-ish quantized encodings produces. Class 0 is left
// all-zero when zeroClass is set, exercising the −Inf path.
func randIntClasses(rng *rand.Rand, classes, dim int, mag int64, zeroClass bool) [][]float64 {
	out := make([][]float64, classes)
	for l := range out {
		c := make([]float64, dim)
		if !(zeroClass && l == 0) {
			for i := range c {
				c[i] = float64(rng.Int63n(2*mag+1) - mag)
			}
		}
		out[l] = c
	}
	return out
}

// checkClose asserts engine scores match the reference within the documented
// 1e-9 relative tolerance (the implementation is in fact bit-identical).
func checkClose(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d scores, want %d", len(got), len(want))
	}
	for l := range got {
		if math.IsInf(want[l], -1) {
			if !math.IsInf(got[l], -1) {
				t.Fatalf("class %d: got %v, want -Inf", l, got[l])
			}
			continue
		}
		tol := 1e-9 * math.Max(1, math.Abs(want[l]))
		if math.Abs(got[l]-want[l]) > tol {
			t.Fatalf("class %d: got %v, want %v (diff %g > tol %g)",
				l, got[l], want[l], got[l]-want[l], tol)
		}
	}
}

// TestEquivalence sweeps geometries that do and do not divide the block
// size, every packed alphabet, all three plane widths, and zero-norm
// classes, asserting the planes entry and the int8 adapter both match the
// float64-expansion reference.
func TestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{1, 3, 7, 63, 64, 255, 256, 257, 1000, 4001}
	mags := map[string]int64{"int8": 100, "int16": 30000, "int32": 1 << 20}
	for name, alphabet := range alphabets() {
		for _, dim := range dims {
			for magName, mag := range mags {
				classes := randIntClasses(rng, 5, dim, mag, true)
				e := intscore.Prepare(classes)
				if e == nil {
					t.Fatalf("%s dim=%d %s: Prepare refused an integer model", name, dim, magName)
				}
				q := randPacked(rng, dim, alphabet)
				want := refScores(classes, q)
				checkClose(t, e.ScoresInto(intscore.Split(q), make([]float64, len(classes))), want)
				checkClose(t, e.ScoresPackedInto(q, make([]float64, len(classes))), want)
			}
		}
	}
}

// checkServingForm asserts classes are what every engine scores: integer
// coordinates with |v| < 2^26, Σv² < 2^53 and 2·‖C‖₁ < 2^53 per class.
func checkServingForm(t *testing.T, classes [][]float64) {
	t.Helper()
	for l, c := range classes {
		var sq, abs float64
		for i, v := range c {
			if v != math.Trunc(v) || math.Abs(v) >= 1<<26 {
				t.Fatalf("class %d dim %d: %v is no integer below 2^26", l, i, v)
			}
			sq += v * v
			abs += math.Abs(v)
		}
		if sq >= 1<<53 || 2*abs >= 1<<53 {
			t.Fatalf("class %d: Σv² = %v, 2·‖C‖₁ = %v, bound 2^53", l, sq, 2*abs)
		}
	}
}

// checkFixed asserts the scores got an engine over classes' fixed form
// gave for q stay within the documented bound of the float path's,
// ‖q‖₂·√D/‖round(2^k·C_l)‖ plus 1e-9 of the score for the float path's own
// rounding, and that the label agrees whenever the float top score beats
// every other by more than both their bounds. Classes the float path
// cannot score (a norm that under- or overflows) or whose fixed form is
// zero are skipped, and so is the label unless every class is comparable.
func checkFixed(t *testing.T, classes, fixed [][]float64, q []int8, got []float64) {
	t.Helper()
	want := refScores(classes, q)
	var qq float64
	for _, s := range q {
		qq += float64(s) * float64(s)
	}
	tol := make([]float64, len(fixed))
	comparable := true
	for l := range want {
		tol[l] = math.Sqrt(qq)*math.Sqrt(float64(len(q)))/vecmath.Norm2(fixed[l]) + 1e-9*math.Max(1, math.Abs(want[l]))
		if math.IsInf(want[l], -1) && math.IsInf(got[l], -1) {
			continue
		}
		if n := vecmath.Norm2(classes[l]); n == 0 || math.IsInf(n, 0) || math.IsInf(tol[l], 0) {
			comparable = false
			continue
		}
		if math.Abs(got[l]-want[l]) > tol[l] {
			t.Fatalf("class %d: fixed-point score %v, float %v (diff %g > bound %g)", l, got[l], want[l], got[l]-want[l], tol[l])
		}
	}
	top := vecmath.ArgMax(want)
	if !comparable || math.IsInf(want[top], -1) {
		return
	}
	for l := range want {
		if l != top && want[top]-tol[top] <= want[l]+tol[l] {
			return // within the bound: either label may win
		}
	}
	if label := vecmath.ArgMax(got); label != top {
		t.Fatalf("fixed-point label %d, float label %d, though the margin exceeds the bound", label, top)
	}
}

// TestNonIntegerModelServedInFixedPoint covers a model with one fractional
// coordinate (an unquantized scalar-encoded model, say): Prepare serves it
// as round(2^k·C) on an int32-width engine, the precomputed hdc.Model
// scores packed queries on that engine, bit-identically to the float path
// over the fixed form, and every score and label stays within the
// documented bound of ScoresInto on the expanded query.
func TestNonIntegerModelServedInFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim, nclasses = 513, 6
	m := hdc.NewModel(nclasses, dim)
	for l, c := range randIntClasses(rng, nclasses, dim, 1000, true) {
		copy(m.Class(l), c)
	}
	m.Class(4)[17] += 0.5
	m.InvalidateAll()
	var classes [][]float64
	for l := 0; l < nclasses; l++ {
		classes = append(classes, m.Class(l))
	}
	fixed := intscore.Fixed(classes)
	if &fixed[1][0] == &classes[1][0] {
		t.Fatal("Fixed kept a fractional model at scale 1")
	}
	checkServingForm(t, fixed)
	m.Precompute()
	if e := m.PackedScorer(); e == nil || e.PlaneBits() != 32 {
		t.Fatalf("PackedScorer = %v; want an int32-width engine", e)
	}
	for trial := 0; trial < 20; trial++ {
		q := randPacked(rng, dim, []int8{-2, -1, 0, 1})
		got := m.ScoresPlanesInto(intscore.Split(q), make([]float64, nclasses))
		checkClose(t, got, refScores(fixed, q))
		checkFixed(t, classes, fixed, q, got)
	}
}

// TestPrepareExactnessBound pins the one bound under which Prepare serves
// classes as they are (scale 1): integer coordinates with |v| < 2^26,
// Σv² < 2^53 and 2·‖C‖₁ < 2^53 per class. Finite classes past it are
// served in fixed point, inside the bound; non-finite ones get no engine,
// and a nil engine is not partial-capable. (The ‖C‖₁ clause cannot trip
// first at an allocatable size: integers have |v| ≤ v², so it needs 2^52
// unit coordinates.)
func TestPrepareExactnessBound(t *testing.T) {
	const limit = 1 << 26
	at := func(v float64, dim int) [][]float64 {
		c := make([]float64, dim)
		for i := range c {
			c[i] = v
		}
		return [][]float64{make([]float64, dim), c}
	}
	for _, tc := range []struct {
		name    string
		classes [][]float64
		ok      bool // an engine
		scale1  bool // served as they are
	}{
		{"max coordinate", at(limit-1, 1), true, true},
		{"max negative coordinate", at(-(limit - 1), 1), true, true},
		{"coordinate at 2^26", at(limit, 1), true, false},
		{"fraction", at(0.5, 4), true, false},
		{"NaN", at(math.NaN(), 4), false, false},
		{"+Inf", at(math.Inf(1), 4), false, false},
		{"Σv² below 2^53", at(1<<25, 7), true, true},
		{"Σv² at 2^53", at(1<<25, 8), true, false},
	} {
		e := intscore.Prepare(tc.classes)
		if (e != nil) != tc.ok {
			t.Errorf("%s: engine %v, want ok=%v", tc.name, e != nil, tc.ok)
		}
		if e.PartialCapable() != tc.ok {
			t.Errorf("%s: PartialCapable %v, want %v", tc.name, e.PartialCapable(), tc.ok)
		}
		fixed := intscore.Fixed(tc.classes)
		if !tc.ok {
			if fixed != nil {
				t.Errorf("%s: Fixed returned classes for a non-finite model", tc.name)
			}
			continue
		}
		if scale1 := &fixed[1][0] == &tc.classes[1][0]; scale1 != tc.scale1 {
			t.Errorf("%s: served as they are %v, want %v", tc.name, scale1, tc.scale1)
		}
		checkServingForm(t, fixed)
	}
}

// TestBitIdenticalToModel asserts the strongest form of the contract: on a
// precomputed hdc.Model with integer class vectors, ScoresPlanesInto is
// bit-for-bit identical to ScoresInto on the expanded query.
func TestBitIdenticalToModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim, nclasses = 777, 9
	m := hdc.NewModel(nclasses, dim)
	for l := 0; l < nclasses; l++ {
		for rep := 0; rep < 3; rep++ {
			h := make([]float64, dim)
			for i := range h {
				h[i] = float64(rng.Intn(4) - 2) // −2…+1 quantized encoding
			}
			m.Add(l, h)
		}
	}
	m.Precompute()
	if m.PackedScorer() == nil {
		t.Fatal("Precompute did not derive a packed scorer")
	}
	checkModelBitIdentical(t, rng, m, 50)
}

// checkModelBitIdentical asserts that m scores random packed queries
// bit-for-bit like ScoresInto on their float64 expansion.
func checkModelBitIdentical(t *testing.T, rng *rand.Rand, m *hdc.Model, trials int) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		q := randPacked(rng, m.Dim(), []int8{-2, -1, 0, 1})
		v := make([]float64, len(q))
		for i, s := range q {
			v[i] = float64(s)
		}
		want := m.ScoresInto(v, make([]float64, m.NumClasses()))
		got := m.ScoresPlanesInto(intscore.Split(q), make([]float64, m.NumClasses()))
		for l := range want {
			if got[l] != want[l] {
				t.Fatalf("trial %d class %d: packed %v != float %v", trial, l, got[l], want[l])
			}
		}
	}
}

// TestModelMutationDropsScorer asserts the engine follows the norm-cache
// freshness discipline: any mutation invalidates it, and scoring a packed
// query on a mutated model precomputes it again first.
func TestModelMutationDropsScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := hdc.NewModel(3, 64)
	h := make([]float64, 64)
	for i := range h {
		h[i] = float64(rng.Intn(3) - 1)
	}
	m.Add(1, h)
	m.Precompute()
	if m.PackedScorer() == nil {
		t.Fatal("no scorer after Precompute")
	}
	m.Add(2, h)
	if m.PackedScorer() != nil {
		t.Fatal("scorer survived Add")
	}
	q := randPacked(rng, 64, []int8{-1, 0, 1})
	classes := [][]float64{m.Class(0), m.Class(1), m.Class(2)}
	checkClose(t, m.ScoresPlanesInto(intscore.Split(q), make([]float64, 3)), refScores(classes, q))
	if m.PackedScorer() == nil {
		t.Fatal("scoring a mutated model did not precompute it")
	}
	m.InvalidateAll()
	if m.PackedScorer() != nil {
		t.Fatal("scorer survived InvalidateAll")
	}
}

// TestPlaneWidths pins the width-narrowing logic to the class magnitudes.
func TestPlaneWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		mag  int64
		bits int
	}{{100, 8}, {5000, 16}, {1 << 20, 32}} {
		e := intscore.Prepare(randIntClasses(rng, 2, 128, tc.mag, false))
		if e.PlaneBits() != tc.bits {
			t.Fatalf("mag %d: PlaneBits = %d, want %d", tc.mag, e.PlaneBits(), tc.bits)
		}
	}
}

// TestPackInto covers the pack/validate contract both with and without a
// reusable buffer.
func TestPackInto(t *testing.T) {
	ok := []float64{-2, -1, 0, 1, 1, -2}
	buf := make([]int8, 8)
	q, packed := intscore.PackInto(ok, buf)
	if !packed {
		t.Fatal("valid alphabet rejected")
	}
	if len(q) != len(ok) {
		t.Fatalf("packed length %d, want %d", len(q), len(ok))
	}
	if &q[0] != &buf[0] {
		t.Fatal("PackInto did not reuse the provided buffer")
	}
	for i, v := range ok {
		if float64(q[i]) != v {
			t.Fatalf("symbol %d: packed %d, want %v", i, q[i], v)
		}
	}
	for _, bad := range [][]float64{{0.5}, {-3}, {2}, {math.NaN()}, {math.Inf(1)}} {
		if _, packed := intscore.PackInto(bad, nil); packed {
			t.Fatalf("invalid value %v accepted", bad[0])
		}
	}
	if q, packed := intscore.PackInto(nil, nil); !packed || len(q) != 0 {
		t.Fatal("empty vector should pack to an empty query")
	}
}

// TestZeroAllocScoring pins the hot-path allocation contract: ScoresInto,
// PartialsInto and the int8 adapter ScoresPackedInto, each with a caller
// buffer, allocate nothing per query.
func TestZeroAllocScoring(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	classes := randIntClasses(rng, 26, 4000, 1000, false)
	e := intscore.Prepare(classes)
	out, partials := make([]float64, 26), make([]int64, 26)
	for _, alphabet := range [][]int8{{-2, -1, 0, 1}, {-1, 1}} { // gather, dense
		q := randPacked(rng, 4000, alphabet)
		pq := intscore.Split(q)
		if n := testing.AllocsPerRun(50, func() { e.ScoresInto(pq, out) }); n != 0 {
			t.Fatalf("ScoresInto allocates %v per op, want 0", n)
		}
		if n := testing.AllocsPerRun(50, func() { e.PartialsInto(pq, partials) }); n != 0 {
			t.Fatalf("PartialsInto allocates %v per op, want 0", n)
		}
		if n := testing.AllocsPerRun(50, func() { e.ScoresPackedInto(q, out) }); n != 0 {
			t.Fatalf("ScoresPackedInto allocates %v per op, want 0", n)
		}
	}
}

// FuzzScoresPacked fuzzes the packed alphabet against the float64-expansion
// reference on six fixed integer models with one zero class each, one per
// class width and geometry: int32 (|v| ≤ 2^20), int16 (|v| ≤ 2000) and
// int8 (|v| ≤ 31), at dims 97 and 600. Every input is scored on each
// through the planes entry and the int8 adapter, so it reaches every
// kernel: on the int16 and int32 engines the all-±1 seed takes the dense
// one (expanding the planes a block at a time) and the zero-rich seed the
// gather one (walking their set bits); the int8 engine scores every input
// on its bit-planes. Each input runs once on every host kernel (the pick
// only changes the bit-plane one). At dim 97 the last query word is
// partial and a plane is two words, under one eight-word step of the
// vector kernel; at dim 600 a plane is one whole step plus a tail of two
// words, the last of them partial.
func FuzzScoresPacked(f *testing.F) {
	type model struct {
		classes [][]float64
		e       *intscore.Engine
	}
	rng := rand.New(rand.NewSource(8))
	var models []model
	for _, dim := range []int{97, 600} {
		for _, mag := range []int64{2000, 31, 1 << 20} {
			c := randIntClasses(rng, 4, dim, mag, true)
			models = append(models, model{c, intscore.Prepare(c)})
		}
	}
	f.Add([]byte{0, 1, 2, 3, 255})
	f.Add(make([]byte, 600))
	f.Add([]byte{1, 3, 3, 1, 3})    // −1/+1 only: dense
	f.Add([]byte{2, 2, 0, 2, 1, 3}) // half zeros: gather
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range models {
			dim := m.e.Dim()
			q := make([]int8, dim)
			for i := range q {
				var b byte
				if len(data) > 0 {
					b = data[i%len(data)]
				}
				q[i] = int8(b%4) - 2 // map every byte into −2…+1
			}
			pq := intscore.Split(q)
			want := refScores(m.classes, q)
			for _, k := range intscore.KernelNames() {
				restore := intscore.UseKernel(k)
				got := m.e.ScoresInto(pq, make([]float64, len(m.classes)))
				gotPacked := m.e.ScoresPackedInto(q, make([]float64, len(m.classes)))
				restore()
				checkClose(t, got, want)
				checkClose(t, gotPacked, want)
			}
		}
	})
}

// FuzzPrepareScale fuzzes the fixed-point rule: three classes of 70
// coordinates, each a fuzzed int8 times 2^shift (shift from −1073, where
// the coordinates are subnormal and k passes what math.Exp2 can hold, to
// 925, where Σv² overflows), with one coordinate optionally nudged off the
// integers. Prepare must return an engine for every such finite class set
// and never panic; the engine's classes must lie inside the exactness
// bound, its Σv² must be theirs exactly, and it must score a fuzzed query
// bit-identically to the float path on them and, where the float path can
// score it at all, within the documented bound of the float path on the
// original classes.
func FuzzPrepareScale(f *testing.F) {
	const dim, nclasses = 70, 3
	f.Add(int16(0), uint8(0), []byte{0})                 // all-zero classes
	f.Add(int16(0), uint8(0), []byte{1, 255, 7, 128})    // small integers: scale 1
	f.Add(int16(0), uint8(3), []byte{1, 255, 7, 128})    // one fractional coordinate
	f.Add(int16(-1073), uint8(0), []byte{1, 2, 3, 255})  // subnormal
	f.Add(int16(-999), uint8(9), []byte{5, 250, 9})      // tiny, and one fraction
	f.Add(int16(18), uint8(0), []byte{127, 129, 100, 1}) // 2^25-scale integers past the bound
	f.Add(int16(925), uint8(0), []byte{127, 129, 3})     // Σv² overflows float64
	f.Fuzz(func(t *testing.T, shift int16, frac uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := int(shift)%1000 - 74
		classes := make([][]float64, nclasses)
		q := make([]int8, dim)
		for l := range classes {
			classes[l] = make([]float64, dim)
			for i := range classes[l] {
				b := data[(l*dim+i)%len(data)]
				classes[l][i] = math.Ldexp(float64(int8(b)), sh)
				q[i] = int8(b>>3%4) - 2
			}
		}
		if frac != 0 {
			classes[int(frac)%nclasses][int(frac)%dim] += math.Ldexp(float64(frac), sh-8)
		}
		e := intscore.Prepare(classes)
		if e == nil {
			t.Fatal("Prepare refused a finite class set")
		}
		fixed := intscore.Fixed(classes)
		checkServingForm(t, fixed)
		for l, c := range fixed {
			var sq float64
			for _, v := range c {
				sq += v * v
			}
			if e.NormsSq()[l] != sq {
				t.Fatalf("class %d: engine Σv² %v, fixed form's %v", l, e.NormsSq()[l], sq)
			}
		}
		got := e.ScoresInto(intscore.Split(q), make([]float64, nclasses))
		checkClose(t, got, refScores(fixed, q))
		checkFixed(t, classes, fixed, q, got)
	})
}
