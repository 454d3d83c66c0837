package intscore_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"privehd/internal/intscore"
)

// TestKernelsMatchPureGo scores every host kernel against the pure-Go one
// through ScoresInto and PartialsInto, bit for bit, and checks the
// partials against the naive int64 dot. Plane widths of 1, 7, 8, 9, 15,
// 16, 63, 79 and 157 words cover a tail alone, a whole eight-word step,
// steps plus every kind of tail, and the served geometries (D = 4000 is
// 63 words, a 5000-dimension shard 79, D = 10 000 157); each is scored
// with a full last word and a partial one. Every plane count from 1 to 8
// is taken, by pinning ±(2^(B−1)−1) (B = 1 is the all-zero model), with
// a bipolar, a half-masked bipolar and a −2…+1 query each.
func TestKernelsMatchPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const nclasses = 5
	for _, words := range []int{1, 7, 8, 9, 15, 16, 63, 79, 157} {
		for _, dim := range []int{64*words - 37, 64 * words} {
			for b := 1; b <= 8; b++ {
				mag := int64(1)<<(b-1) - 1
				classes := randIntClasses(rng, nclasses, dim, mag, false)
				classes[0][0], classes[nclasses-1][dim-1] = float64(mag), float64(-mag)
				e := intscore.Prepare(classes)
				if e.PlaneBits() != 8 {
					t.Fatalf("words=%d dim=%d B=%d: PlaneBits = %d", words, dim, b, e.PlaneBits())
				}
				bipolar := randPacked(rng, dim, []int8{-1, 1})
				masked := slices.Clone(bipolar)
				for _, i := range rng.Perm(dim)[:dim/2] {
					masked[i] = 0
				}
				queries := map[string][]int8{
					"bipolar": bipolar,
					"masked":  masked,
					"full":    randPacked(rng, dim, []int8{-2, -1, 0, 1}),
				}
				for qname, q := range queries {
					name := fmt.Sprintf("words=%d/dim=%d/B=%d/%s", words, dim, b, qname)
					want := make([]int64, nclasses)
					for l, c := range classes {
						for i, v := range c {
							want[l] += int64(q[i]) * int64(v)
						}
					}
					pq := intscore.Split(q)
					restore := intscore.UseKernel("purego")
					wantScores := e.ScoresInto(pq, make([]float64, nclasses))
					restore()
					for _, k := range intscore.KernelNames() {
						restore := intscore.UseKernel(k)
						scores := e.ScoresInto(pq, make([]float64, nclasses))
						partials := e.PartialsInto(pq, make([]int64, nclasses))
						restore()
						if !slices.Equal(partials, want) {
							t.Fatalf("%s: %s partials %v, want %v", name, k, partials, want)
						}
						if !slices.Equal(scores, wantScores) {
							t.Fatalf("%s: %s scores %v, pure Go %v", name, k, scores, wantScores)
						}
					}
				}
			}
		}
	}
}
