package intscore

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"privehd/internal/quant"
)

// panelKernels is the pair of kernels a panels instantiation carries.
type panelKernels interface {
	dense(dim int, lo, hi []uint64, acc []int64, s *engineScratch)
	gather(lo, hi []uint64, acc []int64, s *engineScratch)
}

// TestDenseMatchesGather requires every kernel to produce the exact int64
// dot of every class against a naive oracle, for every quantization
// alphabet, −2 included. At the int16 and int32 panel widths it runs the
// dense and the gather kernel on the same query — including the 0 and −2
// symbols the adaptive choice would never send to the dense kernel; class
// counts cover the 4-row kernel and each number of leftover rows, dims a
// partial block, exact blocks and a block plus a tail. At int8 width it
// runs the bit-plane kernel (see testBitPlanes).
func TestDenseMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	testBitPlanes(t, rng)
	widths := []struct {
		bits int
		mag  int64
	}{{16, 30000}, {32, 1 << 20}}
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
					p, pq := e.planes.(panelKernels), Split(q)
					p.dense(dim, pq.Lo(), pq.Hi(), dense, e.getScratch())
					p.gather(pq.Lo(), pq.Hi(), gather, e.getScratch())
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

// testBitPlanes checks the int8-width bit-plane kernel. Each magnitude is
// pinned at +mag on one coordinate and −mag on another, so the plane count
// b = bits.Len(mag)+1 takes every value from 1 to 8 and each count's
// largest and smallest representable magnitudes are both scored. Dims
// cover a partial word, exact words and a word plus a tail. The kernel
// must add into acc, and must not read a query left in the scratch by an
// earlier call.
func testBitPlanes(t *testing.T, rng *rand.Rand) {
	for _, mag := range []int64{0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 126, 127} {
		for _, scheme := range quant.Schemes() {
			alphabet := scheme.Alphabet()
			for _, dim := range []int{1, 63, 64, 65, 255, 257, 4001} {
				for _, nclasses := range []int{1, 3, 4, 5, 26} {
					name := fmt.Sprintf("int8/mag=%d/%s/dim=%d/classes=%d", mag, scheme.Name(), dim, nclasses)
					classes := make([][]float64, nclasses)
					for l := range classes {
						classes[l] = make([]float64, dim)
						for i := range classes[l] {
							classes[l][i] = float64(rng.Int63n(2*mag+1) - mag)
						}
					}
					classes[0][0] = float64(mag)
					classes[nclasses-1][dim-1] = float64(-mag)
					e := Prepare(classes)
					if e.PlaneBits() != 8 {
						t.Fatalf("%s: PlaneBits = %d", name, e.PlaneBits())
					}
					p, ok := e.planes.(bitPlanes)
					if !ok || p.b != bits.Len64(uint64(mag))+1 {
						t.Fatalf("%s: kernel %T, want %d bit-planes", name, e.planes, bits.Len64(uint64(mag))+1)
					}
					q := make([]int8, dim)
					for i := range q {
						q[i] = int8(alphabet[rng.Intn(len(alphabet))])
					}
					const bias = 1 << 40
					want := make([]int64, nclasses)
					got := make([]int64, nclasses)
					for l, c := range classes {
						want[l] = bias
						got[l] = bias
						for i, v := range c {
							want[l] += int64(q[i]) * int64(v)
						}
					}
					s := e.getScratch()
					for w := range s.q.Bits {
						s.q.Bits[w] = ^uint64(0)
					}
					p.accumulate(Split(q), got, s)
					for l := range want {
						if got[l] != want[l] {
							t.Fatalf("%s class %d: bit-planes %d, want %d", name, l, got[l]-bias, want[l]-bias)
						}
					}
				}
			}
		}
	}
}

func TestKernelDispatch(t *testing.T) {
	ks := hostKernels()
	if ks[0].name != "purego" {
		t.Fatalf("first host kernel is %q, want purego", ks[0].name)
	}
	if kern.name != ks[len(ks)-1].name {
		t.Fatalf("dispatched kernel %q, widest host kernel %q", kern.name, ks[len(ks)-1].name)
	}
	t.Logf("host kernels %v, dispatched %s", KernelNames(), kern.name)
}
