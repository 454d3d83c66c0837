package encslice_test

import (
	"fmt"
	"math/rand"
	"testing"

	"privehd/internal/bitvec"
	"privehd/internal/encslice"
)

// refSign is the oracle for the level-mode bipolar query: the reference
// float loop, then sign with zero mapped to +1, then the mask (keep nil
// keeps every dimension).
func refSign(base, lvl []*bitvec.Vector, lvi []uint16, dim int, keep []bool) []int8 {
	want := make([]int8, dim)
	for j, h := range refLevel(base, lvl, lvi, dim) {
		switch {
		case keep != nil && !keep[j]:
			want[j] = 0
		case h >= 0:
			want[j] = 1
		default:
			want[j] = -1
		}
	}
	return want
}

// mirrorHalf makes an even-F encoding tie in every dimension: feature
// k+F/2 gets the complement of base k and the same level index, so their
// partial products cancel pairwise and h = 0 everywhere.
func mirrorHalf(base []*bitvec.Vector, baseW [][]uint64, lvi []uint16) {
	h := len(base) / 2
	for k := 0; k < h; k++ {
		v := bitvec.New(base[k].Len())
		for j := 0; j < v.Len(); j++ {
			v.Set(j, !base[k].Get(j))
		}
		base[k+h], baseW[k+h] = v, v.Words()
		lvi[k+h] = lvi[k]
	}
}

// keepSets returns the masks the sign tests restrict to: all kept, one
// kept, all but one kept, a random half, and alternating 64-dimension
// runs (word-aligned, so whole source words are kept or dropped).
func keepSets(rng *rand.Rand, dim int) map[string][]bool {
	set := func(f func(j int) bool) []bool {
		k := make([]bool, dim)
		for j := range k {
			k[j] = f(j)
		}
		return k
	}
	one, drop := rng.Intn(dim), rng.Intn(dim)
	sets := map[string][]bool{
		"all":  set(func(int) bool { return true }),
		"one":  set(func(j int) bool { return j == one }),
		"half": set(func(int) bool { return rng.Intn(2) == 0 }),
		"runs": set(func(j int) bool { return j/64%2 == 0 }),
	}
	if dim > 1 {
		sets["D-1"] = set(func(j int) bool { return j != drop })
	}
	if !anyTrue(sets["half"]) {
		sets["half"][one] = true
	}
	return sets
}

func anyTrue(b []bool) bool {
	for _, v := range b {
		if v {
			return true
		}
	}
	return false
}

// checkSign compares the unrestricted bipolar query and the restricted
// one for every keep set against the oracle.
func checkSign(t *testing.T, name string, rng *rand.Rand, base, lvl []*bitvec.Vector, baseW, lvlW [][]uint64, lvi []uint16, dim int) {
	t.Helper()
	e, err := encslice.NewLevel(dim, baseW, lvlW)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pl := stalePlanes(dim)
	e.EncodePackedInto(lvi, encslice.SchemeBipolar, pl)
	compareSign(t, name+"/unmasked", symbols(t, pl, dim), refSign(base, lvl, lvi, dim, nil))
	for kn, keep := range keepSets(rng, dim) {
		r, err := e.Restrict(keep)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, kn, err)
		}
		pl := stalePlanes(dim) // stale bits must be overwritten
		r.EncodeBipolarInto(lvi, pl)
		compareSign(t, name+"/"+kn, symbols(t, pl, dim), refSign(base, lvl, lvi, dim, keep))
	}
}

func compareSign(t *testing.T, name string, got, want []int8) {
	t.Helper()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s dim %d: got %d, reference %d", name, j, got[j], want[j])
		}
	}
}

// TestEncodeSignMatchesReference pins the comparator and the restricted
// engine against the reference over odd and even F (with an all-tie
// encoding), F below 16 where no high counter planes exist, and dimension
// tails on both sides of a word boundary.
func TestEncodeSignMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		const levels = 5
		for _, dim := range []int{1, 63, 64, 65, 4001, 10000} {
			for _, features := range []int{1, 2, 7, 15, 16, 33, 64} {
				base, baseW := genVectors(rng, features, dim)
				lvl, lvlW := genVectors(rng, levels, dim)
				for trial := 0; trial < 2; trial++ {
					lvi := genIndices(rng, features, levels)
					name := fmt.Sprintf("D=%d F=%d trial %d", dim, features, trial)
					checkSign(t, name, rng, base, lvl, baseW, lvlW, lvi, dim)
				}
				if features%2 == 0 {
					lvi := genIndices(rng, features, levels)
					mirrorHalf(base, baseW, lvi)
					for _, h := range refLevel(base, lvl, lvi, dim) {
						if h != 0 {
							t.Fatalf("D=%d F=%d: mirrored encoding is %v, not a tie", dim, features, h)
						}
					}
					checkSign(t, fmt.Sprintf("D=%d F=%d tie", dim, features), rng, base, lvl, baseW, lvlW, lvi, dim)
				}
			}
		}
	})
}

func TestRestrictRejects(t *testing.T) {
	_, baseW := genVectors(rand.New(rand.NewSource(9)), 3, 70)
	le, err := encslice.NewLevel(70, baseW, baseW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := le.Restrict(make([]bool, 69)); err == nil {
		t.Error("accepted a keep set of the wrong length")
	}
	if _, err := le.Restrict(make([]bool, 70)); err == nil {
		t.Error("accepted an empty keep set")
	}
	se, err := encslice.NewScalar(70, 4, baseW)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]bool, 70)
	keep[3] = true
	if _, err := se.Restrict(keep); err == nil {
		t.Error("restricted a scalar engine")
	}
}

func TestEncodeSignAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(10))
	const dim, features, levels = 700, 40, 12
	_, baseW := genVectors(rng, features, dim)
	_, lvlW := genVectors(rng, levels, dim)
	le, err := encslice.NewLevel(dim, baseW, lvlW)
	if err != nil {
		t.Fatal(err)
	}
	r, err := le.Restrict(keepSets(rng, dim)["half"])
	if err != nil {
		t.Fatal(err)
	}
	lvi := genIndices(rng, features, levels)
	pk := stalePlanes(dim)
	if n := testing.AllocsPerRun(20, func() { le.EncodePackedInto(lvi, encslice.SchemeBipolar, pk) }); n != 0 {
		t.Errorf("bipolar EncodePackedInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(20, func() { r.EncodeBipolarInto(lvi, pk) }); n != 0 {
		t.Errorf("EncodeBipolarInto allocates %v per run", n)
	}
}

// FuzzEncodeSign drives the comparator and the restricted engine against
// the reference over fuzzer-chosen geometry, keep density and (for even
// F with the top feature bit set) an all-tie encoding, on every kernel
// the host supports.
func FuzzEncodeSign(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(8), uint8(4), uint8(128))
	f.Add(int64(2), uint16(63), uint8(9), uint8(2), uint8(255))
	f.Add(int64(3), uint16(130), uint8(0x80|16), uint8(31), uint8(1))
	f.Add(int64(4), uint16(1), uint8(1), uint8(255), uint8(0))
	f.Add(int64(5), uint16(1000), uint8(33), uint8(9), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, dimRaw uint16, featRaw, lvlRaw, density uint8) {
		dim := int(dimRaw)%1100 + 1
		features := int(featRaw&0x7f)%70 + 1
		levels := int(lvlRaw)%40 + 2
		rng := rand.New(rand.NewSource(seed))
		base, baseW := genVectors(rng, features, dim)
		lvl, lvlW := genVectors(rng, levels, dim)
		lvi := genIndices(rng, features, levels)
		if featRaw&0x80 != 0 && features%2 == 0 {
			mirrorHalf(base, baseW, lvi)
		}
		keep := make([]bool, dim)
		for j := range keep {
			keep[j] = rng.Intn(256) < int(density)
		}
		if !anyTrue(keep) {
			keep[rng.Intn(dim)] = true
		}

		e, err := encslice.NewLevel(dim, baseW, lvlW)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Restrict(keep)
		if err != nil {
			t.Fatal(err)
		}
		want, wantMasked := refSign(base, lvl, lvi, dim, nil), refSign(base, lvl, lvi, dim, keep)
		eachKernel(func(name string) {
			pl := stalePlanes(dim)
			e.EncodePackedInto(lvi, encslice.SchemeBipolar, pl)
			compareSign(t, name+"/unmasked", symbols(t, pl, dim), want)
			pl = stalePlanes(dim)
			r.EncodeBipolarInto(lvi, pl)
			compareSign(t, name+"/restricted", symbols(t, pl, dim), wantMasked)
		})
	})
}
