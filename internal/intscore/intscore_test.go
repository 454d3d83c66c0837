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

// TestNonIntegerModelHasNoEngine covers a model with one fractional class
// (an unquantized scalar-encoded model, say): Prepare refuses it, and the
// precomputed hdc.Model scores packed queries on its own float path,
// bit-identical to ScoresInto on the expanded query.
func TestNonIntegerModelHasNoEngine(t *testing.T) {
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
	if e := intscore.Prepare(classes); e != nil {
		t.Fatal("Prepare derived an engine for a model with a fractional class")
	}
	m.Precompute()
	if !m.Precomputed() || m.PackedScorer() != nil {
		t.Fatalf("Precomputed = %v, PackedScorer = %v; want true, nil", m.Precomputed(), m.PackedScorer())
	}
	checkModelBitIdentical(t, rng, m, 20)
}

// TestPrepareExactnessBound pins the one bound Prepare admits a model
// under: integer coordinates with |v| < 2^26, Σv² < 2^53 and 2·‖C‖₁ < 2^53
// per class. Anything past it gets no engine, and a nil engine is not
// partial-capable. (The ‖C‖₁ clause cannot trip first at an allocatable
// size: integers have |v| ≤ v², so it needs 2^52 unit coordinates.)
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
		ok      bool
	}{
		{"max coordinate", at(limit-1, 1), true},
		{"max negative coordinate", at(-(limit - 1), 1), true},
		{"coordinate at 2^26", at(limit, 1), false},
		{"fraction", at(0.5, 4), false},
		{"NaN", at(math.NaN(), 4), false},
		{"+Inf", at(math.Inf(1), 4), false},
		{"Σv² below 2^53", at(1<<25, 7), true},
		{"Σv² at 2^53", at(1<<25, 8), false},
	} {
		e := intscore.Prepare(tc.classes)
		if (e != nil) != tc.ok {
			t.Errorf("%s: engine %v, want ok=%v", tc.name, e != nil, tc.ok)
		}
		if e.PartialCapable() != tc.ok {
			t.Errorf("%s: PartialCapable %v, want %v", tc.name, e.PartialCapable(), tc.ok)
		}
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
// freshness discipline: any mutation invalidates it, and the fallback path
// still scores correctly until the next Precompute.
func TestModelMutationDropsScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := hdc.NewModel(3, 64)
	h := make([]float64, 64)
	for i := range h {
		h[i] = float64(rng.Intn(3) - 1)
	}
	m.Add(1, h)
	m.Precompute()
	if m.PackedScorer() == nil || !m.Precomputed() {
		t.Fatal("no scorer after Precompute")
	}
	m.Add(2, h)
	if m.PackedScorer() != nil || m.Precomputed() {
		t.Fatal("scorer survived Add")
	}
	q := randPacked(rng, 64, []int8{-1, 0, 1})
	classes := [][]float64{m.Class(0), m.Class(1), m.Class(2)}
	checkClose(t, m.ScoresPlanesInto(intscore.Split(q), make([]float64, 3)), refScores(classes, q))
	m.Precompute()
	if m.PackedScorer() == nil {
		t.Fatal("no scorer after re-Precompute")
	}
	m.InvalidateAll()
	if m.PackedScorer() != nil || m.Precomputed() {
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
// reference on three fixed integer models with one zero class each, one
// per class width: int32 (|v| ≤ 2^20), int16 (|v| ≤ 2000) and int8
// (|v| ≤ 31). Every input is scored on each through the planes entry and
// the int8 adapter, so it reaches every kernel: on the int16 and int32
// engines the all-±1 seed takes the dense one (expanding the planes a
// block at a time) and the zero-rich seed the gather one (walking their
// set bits); the int8 engine scores every input on its bit-planes. At dim
// 97 the last query word is partial, and the dim is no multiple of 64.
func FuzzScoresPacked(f *testing.F) {
	const dim = 97
	rng := rand.New(rand.NewSource(8))
	wide := randIntClasses(rng, 4, dim, 2000, true)
	narrow := randIntClasses(rng, 4, dim, 31, true)
	widest := randIntClasses(rng, 4, dim, 1<<20, true)
	models := [][][]float64{wide, narrow, widest}
	engines := make([]*intscore.Engine, len(models))
	for k, m := range models {
		engines[k] = intscore.Prepare(m)
	}
	f.Add([]byte{0, 1, 2, 3, 255})
	f.Add(make([]byte, dim))
	f.Add([]byte{1, 3, 3, 1, 3})    // −1/+1 only: dense
	f.Add([]byte{2, 2, 0, 2, 1, 3}) // half zeros: gather
	f.Fuzz(func(t *testing.T, data []byte) {
		q := make([]int8, dim)
		for i := range q {
			var b byte
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			q[i] = int8(b%4) - 2 // map every byte into −2…+1
		}
		pq := intscore.Split(q)
		for k, e := range engines {
			want := refScores(models[k], q)
			checkClose(t, e.ScoresInto(pq, make([]float64, len(models[k]))), want)
			checkClose(t, e.ScoresPackedInto(q, make([]float64, len(models[k]))), want)
		}
	})
}
