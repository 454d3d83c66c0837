package hdc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"privehd/internal/hrand"
)

// hamming counts the dimensions where two packed vectors differ.
func hamming(a, b []uint64) int {
	d := 0
	for w := range a {
		d += bits.OnesCount64(a[w] ^ b[w])
	}
	return d
}

// cosine is the cosine of two packed bipolar vectors of dimension dim.
func cosine(a, b []uint64, dim int) float64 {
	return 1 - 2*float64(hamming(a, b))/float64(dim)
}

// sign is the ±1 value of dimension j of a packed vector.
func sign(v []uint64, j int) float64 {
	if v[j/64]>>(j%64)&1 == 1 {
		return 1
	}
	return -1
}

func TestItemMemoryGeometry(t *testing.T) {
	m := itemWords(hrand.New(1), 20, 1000)
	if len(m) != 20 {
		t.Fatalf("Len = %d, want 20", len(m))
	}
	for k, v := range m {
		if len(v) != 16 {
			t.Fatalf("base %d has %d words, want 16", k, len(v))
		}
		if v[15]>>(1000%64) != 0 {
			t.Fatalf("base %d has bits set past dimension 1000", k)
		}
	}
}

func TestItemMemoryOrthogonality(t *testing.T) {
	// Pairwise cosine of independent bipolar bases is ~N(0, 1/D); check a
	// 5-sigma bound across all pairs of a small memory.
	const d = 4000
	m := itemWords(hrand.New(2), 10, d)
	bound := 5 / math.Sqrt(d)
	for a := range m {
		for b := a + 1; b < len(m); b++ {
			cos := cosine(m[a], m[b], d)
			if math.Abs(cos) > bound {
				t.Errorf("bases %d,%d cosine %v exceeds bound %v", a, b, cos, bound)
			}
		}
	}
}

func TestItemMemoryFloatsMatchPacked(t *testing.T) {
	// BaseInto reads B_k back out of the engine as ±1 floats, overwriting
	// whatever the caller's buffer held.
	cfg := Config{Dim: 200, Features: 5, Levels: 4, Seed: 3}
	m := itemWords(hrand.New(cfg.Seed).Split(0), cfg.Features, cfg.Dim)
	for _, e := range []BaseProvider{mustScalar(t, cfg), mustLevel(t, cfg)} {
		for k := 0; k < cfg.Features; k++ {
			f := make([]float64, cfg.Dim)
			for j := range f {
				f[j] = math.NaN()
			}
			e.BaseInto(k, f)
			for j := range f {
				if f[j] != sign(m[k], j) {
					t.Fatalf("base %d floats/packed disagree at %d: %v", k, j, f[j])
				}
			}
		}
	}
}

func TestItemMemoryDeterminism(t *testing.T) {
	a := itemWords(hrand.New(7), 8, 512)
	b := itemWords(hrand.New(7), 8, 512)
	for k := range a {
		if hamming(a[k], b[k]) != 0 {
			t.Fatal("same seed must give identical item memories")
		}
	}
}

func TestLevelMemoryFlipCounts(t *testing.T) {
	const d, levels = 1000, 10
	m := levelWords(hrand.New(4), levels, d)
	if len(m) != levels {
		t.Fatalf("Len = %d", len(m))
	}
	want := d / (2 * levels)
	for k := 1; k < levels; k++ {
		h := hamming(m[k-1], m[k])
		if h != want {
			t.Errorf("levels %d→%d hamming = %d, want %d", k-1, k, h, want)
		}
	}
}

func TestLevelMemoryEndsOrthogonal(t *testing.T) {
	// With disjoint flips, ends differ in exactly (ℓ−1)·⌊D/2ℓ⌋ bits ≈ D/2,
	// so their dot is ≈ 0 (paper: "~L_0 and ~L_{ℓ−1} are entirely
	// orthogonal").
	const d, levels = 10000, 100
	m := levelWords(hrand.New(5), levels, d)
	flipped := (levels - 1) * (d / (2 * levels))
	first, last := m[0], m[levels-1]
	if got := hamming(first, last); got != flipped {
		t.Fatalf("end-to-end hamming = %d, want %d", got, flipped)
	}
	cos := cosine(first, last, d)
	if math.Abs(cos) > 0.05 {
		t.Errorf("end levels cosine = %v, want ≈0", cos)
	}
}

func TestLevelMemoryMonotoneSimilarity(t *testing.T) {
	// Closer levels must stay more similar: cos(L0, Lk) decreases in k.
	const d, levels = 8000, 20
	m := levelWords(hrand.New(6), levels, d)
	prev := 1.1
	for k := 0; k < levels; k++ {
		cos := cosine(m[0], m[k], d)
		if cos > prev+1e-9 {
			t.Errorf("similarity not monotone at level %d: %v > %v", k, cos, prev)
		}
		prev = cos
	}
}

func TestLevelMemoryDeterminism(t *testing.T) {
	a := levelWords(hrand.New(8), 16, 640)
	b := levelWords(hrand.New(8), 16, 640)
	for k := range a {
		if hamming(a[k], b[k]) != 0 {
			t.Fatal("same seed must give identical level memories")
		}
	}
}

func TestLevelMemoryFloats(t *testing.T) {
	// The level vectors reach floats only through the partial-product
	// planes: plane k of BitPlanes is L_{v_k} ⊙ B_k of the drawn memories.
	cfg := Config{Dim: 100, Features: 3, Levels: 4, Seed: 9}
	src := hrand.New(cfg.Seed)
	base := itemWords(src.Split(0), cfg.Features, cfg.Dim)
	lvl := levelWords(src.Split(1), cfg.Levels, cfg.Dim)
	x := []float64{0.1, 0.6, 0.9}
	for k, p := range mustLevel(t, cfg).BitPlanes(x) {
		l := lvl[LevelIndex(x[k], cfg.Levels)]
		for j, f := range p.Floats() {
			if want := sign(l, j) * sign(base[k], j); f != want {
				t.Fatalf("plane %d dim %d: %v, want L⊙B = %v", k, j, f, want)
			}
		}
	}
}

// memoryDigests are SHA-256 digests of the base and level memories a seed
// generates: every base vector's ⌈D/64⌉ words in order, little-endian,
// then every level vector's. Saved models depend on this mapping, so these
// may never change.
var memoryDigests = []struct {
	cfg         Config
	base, level string
}{
	{Config{Dim: 1000, Features: 37, Levels: 10, Seed: 1}, "c19d9aa83bd2d16f7468f0ac8197677d8265798feb7a74c1f0b924daf1d85d5a", "349d542210f34874f0f5394194639469e0184bb53dbfa662dbdf04e71984e76c"},
	{Config{Dim: 640, Features: 8, Levels: 16, Seed: 7}, "4f978936aa86dff35d49c39294669d05d13c3686c6ee27b2a962b2c5a3f55f65", "d6c9c6aa5e4daca53526c50fcd8194b1912917c13615e5a4317a6a184635cf97"},
	{Config{Dim: 1024, Features: 5, Levels: 2, Seed: 3}, "556082e7da5ecb044c82909e8f46f2876128e0a984490e27e783068f09369182", "9250348ff045823f24df7b106f7a26e2e2e307130eeed8243555f414ed997c3f"},
	{Config{Dim: 63, Features: 3, Levels: 4, Seed: 9}, "c70c2408303d58434183046084bff236858477ff419d080614b522f3346e717e", "21d5f07ab1865d01e431b4470e9598626843d360e93136cf93b915795a94cadd"},
	{Config{Dim: 4000, Features: 617, Levels: 100, Seed: 42}, "8eebd5d33eb025456873a5a4e648327e442ad2e1098e0f934388e8edab9c8160", "3109f0815af082a5e0310fc0b3bbb50d3c3cf283458cd0a6fb508a1df6263025"},
}

// TestMemoryDigestsArePinned reads both memories back out of each
// encoder's engine and compares them with the recorded digests.
func TestMemoryDigestsArePinned(t *testing.T) {
	digest := func(e *engineEncoder, level bool, n int) string {
		h := sha256.New()
		var b [8]byte
		for i := 0; i < n; i++ {
			for w := 0; w < (e.cfg.Dim+63)/64; w++ {
				binary.LittleEndian.PutUint64(b[:], e.engine.Word(level, i, w))
				h.Write(b[:])
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, tc := range memoryDigests {
		le, se := mustLevel(t, tc.cfg), mustScalar(t, tc.cfg)
		for name, got := range map[string]string{
			"level encoder's base":  digest(&le.engineEncoder, false, tc.cfg.Features),
			"scalar encoder's base": digest(&se.engineEncoder, false, tc.cfg.Features),
		} {
			if got != tc.base {
				t.Errorf("%+v: %s memory digest %s, want %s", tc.cfg, name, got, tc.base)
			}
		}
		if got := digest(&le.engineEncoder, true, tc.cfg.Levels); got != tc.level {
			t.Errorf("%+v: level memory digest %s, want %s", tc.cfg, got, tc.level)
		}
	}
}

// TestEncoderRetainsOneMemoryCopy bounds what a level encoder keeps after
// construction by the engine's column-grouped layout of its memories,
// (F+ℓ)·⌈D/512⌉·512 bits, plus slack for the engine's own fields: no
// second copy of either memory survives construction.
func TestEncoderRetainsOneMemoryCopy(t *testing.T) {
	cfg := Config{Dim: 10000, Features: 617, Levels: 100, Seed: 1}
	layout := int64(cfg.Features+cfg.Levels) * int64((cfg.Dim+511)/512) * 64
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what sync.Pools held
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	e := mustLevel(t, cfg)
	after := heap()
	runtime.KeepAlive(e)
	t.Logf("level encoder retains %d B; engine layout %d B", after-before, layout)
	if got, limit := after-before, layout+layout/10; got > limit {
		t.Errorf("level encoder retains %d B, want at most %d (the engine layout, %d B, plus 10%%)",
			got, limit, layout)
	}
}
