package shard

import (
	"errors"
	"math/rand"
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/intscore"
	"privehd/internal/registry"
)

// testPlanes returns classes×dim integer-valued class planes (what a
// partial-capable model holds) with no all-zero class.
func testPlanes(rng *rand.Rand, classes, dim int) [][]float64 {
	planes := make([][]float64, classes)
	for l := range planes {
		planes[l] = make([]float64, dim)
		for k := range planes[l] {
			planes[l][k] = float64(rng.Intn(61) - 30)
		}
		planes[l][0] = float64(l + 1)
	}
	return planes
}

// testQueries returns n packed queries over the full −2…+1 alphabet.
func testQueries(rng *rand.Rand, n, dim int) [][]int8 {
	qs := make([][]int8, n)
	for i := range qs {
		qs[i] = make([]int8, dim)
		for k := range qs[i] {
			qs[i][k] = int8(rng.Intn(4)) + intscore.MinSymbol
		}
	}
	return qs
}

// gatherFrom plays every replica of a tiling locally: each slice's own
// engine answers the partial scores of the sliced batch, exactly as a
// server holding that slice would.
func gatherFrom(t *testing.T, planes [][]float64, tiling []registry.ShardInfo, qs [][]int8) []gatherResult {
	t.Helper()
	results := make([]gatherResult, len(tiling))
	for g, info := range tiling {
		slice := make([][]float64, info.ClassCount)
		for l := range slice {
			slice[l] = planes[info.ClassOffset+l][info.DimOffset : info.DimOffset+info.DimLen]
		}
		eng := intscore.Prepare(slice)
		if !eng.PartialCapable() {
			t.Fatalf("slice %s is not partial-capable", info.String())
		}
		res := gatherResult{info: info, normSq: eng.NormsSq(), partials: make([][]int64, len(qs))}
		for q, p := range qs {
			res.partials[q] = eng.PartialsPackedInto(p[info.DimOffset:info.DimOffset+info.DimLen], make([]int64, info.ClassCount))
		}
		if err := res.check(len(qs)); err != nil {
			t.Fatalf("honest slice %s fails the shape check: %v", info.String(), err)
		}
		results[g] = res
	}
	return results
}

func TestReduceMatchesWholeModelScores(t *testing.T) {
	const dim, classes, queries = 300, 5, 8
	rng := rand.New(rand.NewSource(3))
	planes := testPlanes(rng, classes, dim)
	qs := testQueries(rng, queries, dim)
	whole := intscore.Prepare(planes)

	full := func(s registry.ShardInfo) registry.ShardInfo {
		s.FullDim, s.FullClasses = dim, classes
		return s
	}
	tilings := map[string][]registry.ShardInfo{
		"dimension": {
			full(registry.ShardInfo{DimOffset: 0, DimLen: 100, ClassCount: classes}),
			full(registry.ShardInfo{DimOffset: 100, DimLen: 37, ClassCount: classes}),
			full(registry.ShardInfo{DimOffset: 137, DimLen: dim - 137, ClassCount: classes}),
		},
		"class": {
			full(registry.ShardInfo{DimLen: dim, ClassOffset: 0, ClassCount: 2}),
			full(registry.ShardInfo{DimLen: dim, ClassOffset: 2, ClassCount: classes - 2}),
		},
		"grid": {
			full(registry.ShardInfo{DimOffset: 0, DimLen: 150, ClassOffset: 0, ClassCount: 1}),
			full(registry.ShardInfo{DimOffset: 150, DimLen: 150, ClassOffset: 0, ClassCount: 1}),
			full(registry.ShardInfo{DimOffset: 0, DimLen: 150, ClassOffset: 1, ClassCount: classes - 1}),
			full(registry.ShardInfo{DimOffset: 150, DimLen: 150, ClassOffset: 1, ClassCount: classes - 1}),
		},
	}
	for name, tiling := range tilings {
		t.Run(name, func(t *testing.T) {
			groups := make([]*group, len(tiling))
			for i, info := range tiling {
				groups[i] = &group{info: info}
			}
			if err := checkTiling(groups); err != nil {
				t.Fatalf("tiling rejected: %v", err)
			}
			results := gatherFrom(t, planes, tiling, qs)
			dots := make([]int64, classes)
			nsq := make([]float64, classes)
			for q, p := range qs {
				got := reduce(results, q, dots, nsq, make([]float64, classes))
				want := whole.ScoresPackedInto(p, make([]float64, classes))
				for l := range want {
					if got[l] != want[l] {
						t.Fatalf("query %d class %d: reduced %v, whole model %v — not bit-identical", q, l, got[l], want[l])
					}
				}
			}
		})
	}
}

// TestReduceFixedPointModelSharesScale pins the scale hazard of sharding a
// model whose classes are not integers: each class's first half has
// |v| < 1 and its second half |v| > 1, so a half scaled on its own would
// pick another fixed-point exponent than the whole model, and its partials
// and Σv² would come back in other units. Slices cut by hdc.Model.Slice
// carry the whole model's scale, so the reduced scores must equal the
// whole model's engine scores bit for bit.
func TestReduceFixedPointModelSharesScale(t *testing.T) {
	const dim, classes, queries = 128, 3, 8
	rng := rand.New(rand.NewSource(5))
	m := hdc.NewModel(classes, dim)
	for l := 0; l < classes; l++ {
		c := m.Class(l)
		for i := range c {
			mag := 0.5 + 0.4*rng.Float64() // below 2^0
			if i >= dim/2 {
				mag += 0.6 // above it
			}
			c[i] = mag * float64(2*rng.Intn(2)-1)
		}
	}
	m.InvalidateAll()
	m.Precompute()
	whole := m.PackedScorer()
	qs := testQueries(rng, queries, dim)
	results := make([]gatherResult, 2)
	for g := range results {
		info := registry.ShardInfo{DimOffset: g * dim / 2, DimLen: dim / 2, ClassCount: classes, FullDim: dim, FullClasses: classes}
		half := m.Slice(info.DimOffset, info.DimLen, 0, classes)
		half.Precompute()
		eng := half.PackedScorer()
		results[g] = gatherResult{info: info, normSq: eng.NormsSq(), partials: make([][]int64, queries)}
		for q, p := range qs {
			results[g].partials[q] = eng.PartialsPackedInto(p[info.DimOffset:info.DimOffset+info.DimLen], make([]int64, classes))
		}
	}
	dots := make([]int64, classes)
	nsq := make([]float64, classes)
	for q, p := range qs {
		got := reduce(results, q, dots, nsq, make([]float64, classes))
		want := whole.ScoresPackedInto(p, make([]float64, classes))
		for l := range want {
			if got[l] != want[l] {
				t.Fatalf("query %d class %d: reduced %v, whole model %v — not bit-identical", q, l, got[l], want[l])
			}
		}
	}
}

func TestCheckTilingRejects(t *testing.T) {
	shard := func(dimOff, dimLen, classOff, classCount, fullDim int) *group {
		return &group{info: registry.ShardInfo{
			DimOffset: dimOff, DimLen: dimLen, ClassOffset: classOff, ClassCount: classCount,
			FullDim: fullDim, FullClasses: 4,
		}}
	}
	cases := map[string][]*group{
		"gap":            {shard(0, 40, 0, 4, 100), shard(50, 50, 0, 4, 100)},
		"overlap":        {shard(0, 60, 0, 4, 100), shard(40, 60, 0, 4, 100)},
		"class overlap":  {shard(0, 100, 0, 3, 100), shard(0, 100, 2, 2, 100)},
		"full dim":       {shard(0, 50, 0, 4, 100), shard(50, 50, 0, 4, 120)},
		"out of bounds":  {shard(0, 50, 0, 4, 100), shard(50, 60, 0, 4, 100)},
		"area not whole": {shard(0, 100, 0, 2, 100)},
	}
	for name, groups := range cases {
		if err := checkTiling(groups); !errors.Is(err, ErrBadTiling) {
			t.Errorf("%s: checkTiling = %v, want ErrBadTiling", name, err)
		}
	}
	if err := checkTiling([]*group{shard(0, 50, 0, 4, 100), shard(50, 50, 0, 4, 100)}); err != nil {
		t.Errorf("exact tiling rejected: %v", err)
	}
}

func TestGatherResultShapeCheck(t *testing.T) {
	// Descriptor: classes [1,3) of a 4-class model, a batch of 2 queries.
	info := registry.ShardInfo{DimLen: 8, ClassOffset: 1, ClassCount: 2, FullDim: 8, FullClasses: 4}
	good := func() gatherResult {
		return gatherResult{info: info, partials: [][]int64{{1, 2}, {3, 4}}, normSq: []float64{5, 6}}
	}
	if r := good(); r.check(2) != nil {
		t.Fatalf("well-shaped answer refused: %v", r.check(2))
	}
	// Each mutation is a shape a replica answers in once its served entry
	// stops matching its descriptor — a class shard re-registered as the
	// whole model, say, answers rows too long for the descriptor.
	cases := map[string]func(*gatherResult){
		"missing query": func(r *gatherResult) { r.partials = r.partials[:1] },
		"extra query":   func(r *gatherResult) { r.partials = append(r.partials, []int64{7, 8}) },
		"long row":      func(r *gatherResult) { r.partials[1] = []int64{1, 2, 3, 4} },
		"short row":     func(r *gatherResult) { r.partials[0] = []int64{1} },
		"long normSq":   func(r *gatherResult) { r.normSq = []float64{1, 2, 3, 4} },
		"short normSq":  func(r *gatherResult) { r.normSq = nil },
	}
	for name, mutate := range cases {
		r := good()
		mutate(&r)
		if err := r.check(2); !errors.Is(err, ErrBadTiling) {
			t.Errorf("%s: check = %v, want ErrBadTiling", name, err)
		}
	}
}
