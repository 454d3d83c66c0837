package intscore

import (
	"fmt"
	"math/rand"
	"testing"

	"privehd/internal/quant"
)

// TestDenseMatchesGather runs the dense and the gather kernel on the same
// query and requires both to produce the exact int64 dot of every class, at
// every plane width and for every quantization alphabet — including the 0
// and −2 symbols the adaptive choice would never send to the dense kernel.
// Class counts cover the 4-row kernel and each number of leftover rows;
// dims cover a partial block, exact blocks and a block plus a tail.
func TestDenseMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	widths := []struct {
		bits int
		mag  int64
	}{{8, 127}, {16, 30000}, {32, 1 << 20}}
	for _, w := range widths {
		for _, scheme := range quant.Schemes() {
			alphabet := scheme.Alphabet()
			for _, dim := range []int{1, 63, 255, 256, 257, 4001} {
				for _, nclasses := range []int{1, 3, 4, 5, 26} {
					name := fmt.Sprintf("int%d/%s/dim=%d/classes=%d", w.bits, scheme.Name(), dim, nclasses)
					classes := make([][]float64, nclasses)
					for l := range classes {
						classes[l] = make([]float64, dim)
						for i := range classes[l] {
							classes[l][i] = float64(rng.Int63n(2*w.mag+1) - w.mag)
						}
					}
					// Pin one coordinate to the width's largest magnitude so
					// Prepare picks exactly this width.
					classes[0][0] = float64(w.mag)
					e := Prepare(classes)
					if e.PlaneBits() != w.bits {
						t.Fatalf("%s: PlaneBits = %d", name, e.PlaneBits())
					}
					q := make([]int8, dim)
					for i := range q {
						q[i] = int8(alphabet[rng.Intn(len(alphabet))])
					}
					want := make([]int64, nclasses)
					for l, c := range classes {
						for i, v := range c {
							want[l] += int64(q[i]) * int64(v)
						}
					}
					dense, gather := make([]int64, nclasses), make([]int64, nclasses)
					e.planes.dense(q, dense)
					e.planes.gather(q, gather, e.getScratch())
					for l := range want {
						if dense[l] != want[l] || gather[l] != want[l] {
							t.Fatalf("%s class %d: dense %d, gather %d, want %d", name, l, dense[l], gather[l], want[l])
						}
					}
				}
			}
		}
	}
}
