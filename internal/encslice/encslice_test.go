package encslice_test

import (
	"fmt"
	"math/rand"
	"testing"

	"privehd/internal/bitvec"
	"privehd/internal/encslice"
	"privehd/internal/intscore"
	"privehd/internal/quant"
)

// stalePlanes returns the plane words of a dim-dimensional query with
// every bit set, so an encoder that fails to overwrite one shows.
func stalePlanes(dim int) []uint64 {
	p := intscore.NewPlanes(dim)
	for w := range p.Bits {
		p.Bits[w] = ^uint64(0)
	}
	return p.Bits
}

// symbols expands an encoder's plane words to one symbol per dimension,
// failing the test if a bit past dim is set.
func symbols(t *testing.T, words []uint64, dim int) []int8 {
	t.Helper()
	p := intscore.Planes{Dim: dim, Bits: words}
	if r := dim % 64; r != 0 {
		for _, plane := range [][]uint64{p.Lo(), p.Hi()} {
			if plane[len(plane)-1]>>r != 0 {
				t.Fatalf("dim %d: bits set past the last dimension", dim)
			}
		}
	}
	out := make([]int8, dim)
	for i := range out {
		out[i] = p.Symbol(i)
	}
	return out
}

// genVectors returns n random packed ±1 vectors of the given dimension and
// their word slices.
func genVectors(rng *rand.Rand, n, dim int) ([]*bitvec.Vector, [][]uint64) {
	vecs := make([]*bitvec.Vector, n)
	words := make([][]uint64, n)
	for i := range vecs {
		v := bitvec.New(dim)
		for j := 0; j < dim; j++ {
			if rng.Intn(2) == 1 {
				v.Set(j, true)
			}
		}
		vecs[i] = v
		words[i] = v.Words()
	}
	return vecs, words
}

func genIndices(rng *rand.Rand, features, levels int) []uint16 {
	lvi := make([]uint16, features)
	for k := range lvi {
		lvi[k] = uint16(rng.Intn(levels))
	}
	return lvi
}

// refLevel is the reference Eq. 2b float loop: h[j] = Σ_k L_{v_k}[j]·B_k[j],
// accumulated term by term as the pre-engine encoder did. Every term is ±1,
// so the float64 accumulation is exact integer arithmetic.
func refLevel(base, lvl []*bitvec.Vector, lvi []uint16, dim int) []float64 {
	h := make([]float64, dim)
	for k, li := range lvi {
		l, b := lvl[li], base[k]
		for j := 0; j < dim; j++ {
			h[j] += l.Sign(j) * b.Sign(j)
		}
	}
	return h
}

// refScalar is the exactly-evaluated Eq. 2a reference: the integer numerator
// Σ_k lv_k·B_k[j] accumulated term by term (exact — all partial sums are
// small integers), finished by one division by ℓ−1.
func refScalar(base []*bitvec.Vector, lvi []uint16, dim, levels int) []float64 {
	h := make([]float64, dim)
	for k, li := range lvi {
		lv := float64(li)
		if lv == 0 {
			continue
		}
		b := base[k]
		for j := 0; j < dim; j++ {
			h[j] += lv * b.Sign(j)
		}
	}
	d := float64(levels - 1)
	for j := range h {
		h[j] /= d
	}
	return h
}

// forEachKernel runs f as one subtest per kernel the host supports, with
// that kernel dispatched.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	eachKernel(func(name string) { t.Run(name, f) })
}

// eachKernel calls f with every kernel the host supports dispatched in
// turn, the pure-Go kernel first.
func eachKernel(f func(name string)) {
	for _, name := range encslice.KernelNames() {
		func() {
			defer encslice.UseKernel(name)()
			f(name)
		}()
	}
}

var geometries = []struct {
	dim, features, levels int
}{
	{1, 1, 2},
	{63, 7, 2},
	{64, 8, 3},
	{65, 16, 4},
	{127, 5, 100},
	{128, 31, 7},
	{130, 33, 64},
	{320, 40, 101},
	{1000, 17, 5},
}

func TestLevelMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, g := range geometries {
			base, baseW := genVectors(rng, g.features, g.dim)
			lvl, lvlW := genVectors(rng, g.levels, g.dim)
			e, err := encslice.NewLevel(g.dim, baseW, lvlW)
			if err != nil {
				t.Fatalf("%+v: %v", g, err)
			}
			for trial := 0; trial < 4; trial++ {
				lvi := genIndices(rng, g.features, g.levels)
				want := refLevel(base, lvl, lvi, g.dim)
				got := make([]float64, g.dim)
				e.EncodeInto(lvi, got)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%+v trial %d dim %d: engine %v, reference %v", g, trial, j, got[j], want[j])
					}
				}
			}
		}
	})
}

func TestScalarMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for _, g := range geometries {
			base, baseW := genVectors(rng, g.features, g.dim)
			e, err := encslice.NewScalar(g.dim, g.levels, baseW)
			if err != nil {
				t.Fatalf("%+v: %v", g, err)
			}
			for trial := 0; trial < 4; trial++ {
				lvi := genIndices(rng, g.features, g.levels)
				want := refScalar(base, lvi, g.dim, g.levels)
				got := make([]float64, g.dim)
				e.EncodeInto(lvi, got)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%+v trial %d dim %d: engine %v, reference %v", g, trial, j, got[j], want[j])
					}
				}
			}
		}
	})
}

func TestAllZeroIndices(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		// Level index 0 everywhere: level mode must return Σ_k L_0⊙B_k, scalar
		// mode the zero vector (every feature value is f_0 = 0).
		rng := rand.New(rand.NewSource(3))
		const dim, features, levels = 190, 12, 8
		base, baseW := genVectors(rng, features, dim)
		lvl, lvlW := genVectors(rng, levels, dim)
		lvi := make([]uint16, features)

		le, err := encslice.NewLevel(dim, baseW, lvlW)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, dim)
		le.EncodeInto(lvi, got)
		want := refLevel(base, lvl, lvi, dim)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("level dim %d: %v vs %v", j, got[j], want[j])
			}
		}

		se, err := encslice.NewScalar(dim, levels, baseW)
		if err != nil {
			t.Fatal(err)
		}
		se.EncodeInto(lvi, got)
		for j, v := range got {
			if v != 0 {
				t.Fatalf("scalar dim %d: all-zero features encoded to %v, want 0", j, v)
			}
		}
	})
}

// schemes pairs every fused scheme with the quant package rule it must
// reproduce bit for bit.
var schemes = []struct {
	name   string
	scheme encslice.Scheme
	q      quant.Quantizer
}{
	{"bipolar", encslice.SchemeBipolar, quant.Bipolar{}},
	{"ternary", encslice.SchemeTernary, quant.Ternary{}},
	{"ternary-biased", encslice.SchemeBiasedTernary, quant.BiasedTernary{}},
	{"2bit", encslice.SchemeTwoBit, quant.TwoBit{}},
}

func TestEncodePackedMatchesQuantize(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, g := range geometries {
			_, baseW := genVectors(rng, g.features, g.dim)
			_, lvlW := genVectors(rng, g.levels, g.dim)
			le, err := encslice.NewLevel(g.dim, baseW, lvlW)
			if err != nil {
				t.Fatal(err)
			}
			se, err := encslice.NewScalar(g.dim, g.levels, baseW)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []*encslice.Engine{le, se} {
				for trial := 0; trial < 3; trial++ {
					lvi := genIndices(rng, g.features, g.levels)
					h := make([]float64, g.dim)
					e.EncodeInto(lvi, h)
					for _, sc := range schemes {
						wantF := make([]float64, g.dim)
						quant.QuantizeInto(sc.q, wantF, h)
						want, ok := intscore.PackInto(wantF, nil)
						if !ok {
							t.Fatalf("%s: quantized reference does not pack", sc.name)
						}
						pl := stalePlanes(g.dim)
						e.EncodePackedInto(lvi, sc.scheme, pl)
						got := symbols(t, pl, g.dim)
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("%+v %s dim %d: fused %d, quantized float %d (h=%v)",
									g, sc.name, j, got[j], want[j], h[j])
							}
						}
					}
				}
			}
		}
	})
}

func TestBatchMatchesSingle(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		const dim, features, levels, rows = 257, 21, 16, 9
		_, baseW := genVectors(rng, features, dim)
		_, lvlW := genVectors(rng, levels, dim)
		le, err := encslice.NewLevel(dim, baseW, lvlW)
		if err != nil {
			t.Fatal(err)
		}
		se, err := encslice.NewScalar(dim, levels, baseW)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*encslice.Engine{le, se} {
			lvi := make([]uint16, rows*features)
			for i := range lvi {
				lvi[i] = uint16(rng.Intn(levels))
			}
			batch := make([]float64, rows*dim)
			e.EncodeBatchInto(lvi, rows, batch)
			single := make([]float64, dim)
			for r := 0; r < rows; r++ {
				e.EncodeInto(lvi[r*features:(r+1)*features], single)
				for j := range single {
					if batch[r*dim+j] != single[j] {
						t.Fatalf("row %d dim %d: batch %v, single %v", r, j, batch[r*dim+j], single[j])
					}
				}
			}
		}
	})
}

func TestRejectsUnsupportedGeometry(t *testing.T) {
	_, baseW := genVectors(rand.New(rand.NewSource(6)), 2, 64)
	if _, err := encslice.NewLevel(0, baseW, baseW); err == nil {
		t.Error("accepted dim 0")
	}
	if _, err := encslice.NewLevel(64, nil, baseW); err == nil {
		t.Error("accepted empty base memory")
	}
	if _, err := encslice.NewScalar(64, 1, baseW); err == nil {
		t.Error("accepted 1 level")
	}
	if _, err := encslice.NewScalar(64, 1<<17, baseW); err == nil {
		t.Error("accepted levels beyond the uint16 index range")
	}
	bigBase := make([][]uint64, 1<<16+1)
	for i := range bigBase {
		bigBase[i] = baseW[0]
	}
	if _, err := encslice.NewScalar(64, 2, bigBase); err == nil {
		t.Error("accepted scalar features beyond the uint16 list-index range")
	}
	if _, err := encslice.NewLevel(64, bigBase, baseW); err != nil {
		t.Errorf("level mode rejected %d features: %v (only scalar lists index features as uint16)", len(bigBase), err)
	}
	if _, err := encslice.NewLevel(128, baseW, baseW); err == nil {
		t.Error("accepted word slices shorter than the dimension")
	}
}

// TestWordReadsBackTheMemories checks the engine's one read-back path:
// every word of every base and level vector comes back as it went in,
// with the bits past the dimension cleared even when the caller's were
// set, and a word the engine does not hold panics.
func TestWordReadsBackTheMemories(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range geometries {
		_, baseW := genVectors(rng, g.features, g.dim)
		_, lvlW := genVectors(rng, g.levels, g.dim)
		words := len(baseW[0])
		tail := ^uint64(0)
		if r := g.dim % 64; r != 0 {
			tail = 1<<r - 1
		}
		for _, v := range append(baseW[:len(baseW):len(baseW)], lvlW...) {
			v[words-1] |= ^tail
		}
		le, err := encslice.NewLevel(g.dim, baseW, lvlW)
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		se, err := encslice.NewScalar(g.dim, g.levels, baseW)
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		for _, c := range []struct {
			name  string
			e     *encslice.Engine
			level bool
			vecs  [][]uint64
		}{{"level/base", le, false, baseW}, {"level/level", le, true, lvlW}, {"scalar/base", se, false, baseW}} {
			for i, v := range c.vecs {
				for w, want := range v {
					if w == words-1 {
						want &= tail
					}
					if got := c.e.Word(c.level, i, w); got != want {
						t.Fatalf("%+v %s vector %d word %d: %#x, want %#x", g, c.name, i, w, got, want)
					}
				}
			}
		}
		for name, read := range map[string]func(){
			"word past the dimension": func() { le.Word(false, 0, words) },
			"base past the features":  func() { le.Word(false, g.features, 0) },
			"level past the levels":   func() { le.Word(true, g.levels, 0) },
			"scalar level memory":     func() { se.Word(true, 0, 0) },
		} {
			if !panics(read) {
				t.Errorf("%+v: reading a %s did not panic", g, name)
			}
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestEncodeAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	const dim, features, levels = 512, 40, 12
	_, baseW := genVectors(rng, features, dim)
	_, lvlW := genVectors(rng, levels, dim)
	le, err := encslice.NewLevel(dim, baseW, lvlW)
	if err != nil {
		t.Fatal(err)
	}
	se, err := encslice.NewScalar(dim, levels, baseW)
	if err != nil {
		t.Fatal(err)
	}
	lvi := genIndices(rng, features, levels)
	h := make([]float64, dim)
	pk := stalePlanes(dim)
	for name, e := range map[string]*encslice.Engine{"level": le, "scalar": se} {
		e.EncodeInto(lvi, h) // warm the pool
		if n := testing.AllocsPerRun(20, func() { e.EncodeInto(lvi, h) }); n != 0 {
			t.Errorf("%s EncodeInto allocates %v per run", name, n)
		}
		e.EncodePackedInto(lvi, encslice.SchemeBiasedTernary, pk)
		if n := testing.AllocsPerRun(20, func() {
			e.EncodePackedInto(lvi, encslice.SchemeBiasedTernary, pk)
		}); n != 0 {
			t.Errorf("%s EncodePackedInto allocates %v per run", name, n)
		}
	}
}

// FuzzEncodeAgainstReference drives both engine modes (and the fused
// quantize path) against the reference loops over fuzzer-chosen geometry
// and bit patterns, on every kernel the host supports.
func FuzzEncodeAgainstReference(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(8), uint8(4))
	f.Add(int64(2), uint16(63), uint8(9), uint8(2))
	f.Add(int64(3), uint16(130), uint8(16), uint8(31))
	f.Add(int64(4), uint16(1), uint8(1), uint8(255))
	f.Add(int64(5), uint16(513), uint8(15), uint8(99))
	f.Fuzz(func(t *testing.T, seed int64, dimRaw uint16, featRaw, lvlRaw uint8) {
		dim := int(dimRaw)%600 + 1
		features := int(featRaw)%48 + 1
		levels := int(lvlRaw)%40 + 2
		rng := rand.New(rand.NewSource(seed))
		base, baseW := genVectors(rng, features, dim)
		lvl, lvlW := genVectors(rng, levels, dim)
		lvi := genIndices(rng, features, levels)
		le, err := encslice.NewLevel(dim, baseW, lvlW)
		if err != nil {
			t.Fatal(err)
		}
		se, err := encslice.NewScalar(dim, levels, baseW)
		if err != nil {
			t.Fatal(err)
		}
		wantL := refLevel(base, lvl, lvi, dim)
		wantS := refScalar(base, lvi, dim, levels)
		sc := schemes[int(uint64(seed)%uint64(len(schemes)))]
		var wantPk [2][]int8
		for i, want := range [][]float64{wantL, wantS} {
			q := make([]float64, dim)
			quant.QuantizeInto(sc.q, q, want)
			pk, ok := intscore.PackInto(q, nil)
			if !ok {
				t.Fatal("reference quantization does not pack")
			}
			wantPk[i] = pk
		}

		eachKernel(func(name string) {
			got := make([]float64, dim)
			for i, e := range []*encslice.Engine{le, se} {
				want := [][]float64{wantL, wantS}[i]
				e.EncodeInto(lvi, got)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s %s dim %d: %v vs %v", name, [2]string{"level", "scalar"}[i], j, got[j], want[j])
					}
				}
				// Fused path vs quantizing the reference encoding.
				pl := stalePlanes(dim)
				e.EncodePackedInto(lvi, sc.scheme, pl)
				gotPk := symbols(t, pl, dim)
				for j := range wantPk[i] {
					if gotPk[j] != wantPk[i][j] {
						t.Fatalf("%s %s %s dim %d: fused %d vs %d", name, [2]string{"level", "scalar"}[i], sc.name, j, gotPk[j], wantPk[i][j])
					}
				}
			}
		})
	})
}

// TestKernelsMatchReference pins every host kernel against the reference
// loops over dimensions that leave column groups partial and word tails
// odd, and feature counts on both sides of every CSA-tree tail and
// high-stack depth boundary: level and scalar EncodeInto, the batch
// kernel, and the bipolar query, unrestricted and restricted, with an
// all-tie encoding for even F.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const levels = 100
	for _, dim := range []int{1, 63, 64, 65, 511, 513, 4000} {
		for _, features := range []int{1, 7, 8, 9, 15, 16, 617} {
			base, baseW := genVectors(rng, features, dim)
			lvl, lvlW := genVectors(rng, levels, dim)
			lvi := genIndices(rng, features, levels)
			name := fmt.Sprintf("D=%d F=%d", dim, features)
			checkKernels(t, name, rng, base, lvl, baseW, lvlW, lvi, dim, levels)
			if features%2 == 0 {
				mirrorHalf(base, baseW, lvi)
				checkKernels(t, name+" tie", rng, base, lvl, baseW, lvlW, lvi, dim, levels)
			}
		}
	}
}

// checkKernels computes the reference encodings of one query once and
// compares every host kernel's engine outputs with them.
func checkKernels(t *testing.T, name string, rng *rand.Rand, base, lvl []*bitvec.Vector, baseW, lvlW [][]uint64, lvi []uint16, dim, levels int) {
	t.Helper()
	le, err := encslice.NewLevel(dim, baseW, lvlW)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	se, err := encslice.NewScalar(dim, levels, baseW)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	keep := keepSets(rng, dim)["half"]
	r, err := le.Restrict(keep)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// The batch is the query and a second random one.
	lvi2 := genIndices(rng, len(lvi), levels)
	batch := append(append([]uint16(nil), lvi...), lvi2...)
	wantL := append(refLevel(base, lvl, lvi, dim), refLevel(base, lvl, lvi2, dim)...)
	wantS := refScalar(base, lvi, dim, levels)
	wantSign, wantMasked := refSign(base, lvl, lvi, dim, nil), refSign(base, lvl, lvi, dim, keep)

	compare := func(what string, got, want []float64) {
		t.Helper()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s %s index %d: got %v, reference %v", name, what, j, got[j], want[j])
			}
		}
	}
	eachKernel(func(k string) {
		got := make([]float64, 2*dim)
		le.EncodeInto(lvi, got[:dim])
		compare(k+" level", got[:dim], wantL[:dim])
		se.EncodeInto(lvi, got[:dim])
		compare(k+" scalar", got[:dim], wantS)
		le.EncodeBatchInto(batch, 2, got)
		compare(k+" level batch", got, wantL)
		pl := stalePlanes(dim)
		le.EncodePackedInto(lvi, encslice.SchemeBipolar, pl)
		compareSign(t, name+" "+k+" sign", symbols(t, pl, dim), wantSign)
		pl = stalePlanes(dim)
		r.EncodeBipolarInto(lvi, pl)
		compareSign(t, name+" "+k+" masked sign", symbols(t, pl, dim), wantMasked)
	})
}

// TestRejectsOutOfRangeIndex pins the index check in front of the
// kernels, which read the level memory without bounds checks: a level
// index of Levels panics on every entry.
func TestRejectsOutOfRangeIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const dim, features, levels = 130, 9, 6
	_, baseW := genVectors(rng, features, dim)
	_, lvlW := genVectors(rng, levels, dim)
	le, err := encslice.NewLevel(dim, baseW, lvlW)
	if err != nil {
		t.Fatal(err)
	}
	se, err := encslice.NewScalar(dim, levels, baseW)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]bool, dim)
	keep[7] = true
	r, err := le.Restrict(keep)
	if err != nil {
		t.Fatal(err)
	}
	lvi := genIndices(rng, features, levels)
	lvi[features-1] = levels
	h := make([]float64, dim)
	pl := stalePlanes(dim)
	for name, call := range map[string]func(){
		"level EncodeInto":       func() { le.EncodeInto(lvi, h) },
		"scalar EncodeInto":      func() { se.EncodeInto(lvi, h) },
		"level EncodePackedInto": func() { le.EncodePackedInto(lvi, encslice.SchemeBipolar, pl) },
		"EncodeBatchInto":        func() { le.EncodeBatchInto(lvi, 1, h) },
		"EncodeBipolarInto":      func() { r.EncodeBipolarInto(lvi, pl) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted level index %d of %d levels", name, levels, levels)
				}
			}()
			call()
		}()
	}
}
