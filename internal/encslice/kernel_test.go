package encslice

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// randRows returns n random rows of groupCols words.
func randRows(rng *rand.Rand, n int) []uint64 {
	m := make([]uint64, n*groupCols)
	for i := range m {
		m[i] = rng.Uint64()
	}
	return m
}

// hiDepth is the engine's high-plane depth for counts up to n.
func hiDepth(n int) int {
	return max(0, bits.Len(uint(n))-4)
}

// refCounts counts, per lane of every column, the planes that plane(i, c)
// sets, for i < n.
func refCounts(n int, plane func(i, c int) uint64) [groupCols][64]int32 {
	var cnt [groupCols][64]int32
	for c := 0; c < groupCols; c++ {
		for i := 0; i < n; i++ {
			p := plane(i, c)
			for b := 0; b < 64; b++ {
				cnt[c][b] += int32(p >> b & 1)
			}
		}
	}
	return cnt
}

// checkPlanes compares a kernel's counter slices with the pure-Go
// kernel's word for word, and their read-off with the reference counts.
func checkPlanes(t *testing.T, name string, got, want *planes, hiN int, ref [groupCols][64]int32) {
	t.Helper()
	same := got.ones == want.ones && got.twos == want.twos && got.fours == want.fours && got.eights == want.eights
	for l := 0; l < hiN; l++ {
		same = same && got.hi[l] == want.hi[l]
	}
	if !same {
		t.Fatalf("%s: counter slices differ from the pure-Go kernel's", name)
	}
	var cnt [64]int32
	for c := 0; c < groupCols; c++ {
		got.counts(c, &cnt, 64, hiN)
		if cnt != ref[c] {
			t.Fatalf("%s column %d: counts %v, reference %v", name, c, cnt, ref[c])
		}
	}
}

// dirty fills a planes block with ones, so a kernel that leaves a slice
// unwritten shows.
func dirty() *planes {
	pl := new(planes)
	for c := 0; c < groupCols; c++ {
		pl.ones[c], pl.twos[c], pl.fours[c], pl.eights[c] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		for l := range pl.hi {
			pl.hi[l][c] = ^uint64(0)
		}
	}
	return pl
}

// TestKernelsMatchPureGo runs every host kernel's xor and gather entries
// on random groups for every plane count from 1 to 70 (every tail length and
// high-stack depths 0–3) and at 617 and 65 535 planes (depths 6 and 12),
// against the pure-Go kernel and the per-lane reference count.
func TestKernelsMatchPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sizes []int
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 617, 1<<16-1)
	const levels = 100
	for _, n := range sizes {
		hiN := hiDepth(n)
		base, lvl := randRows(rng, n), randRows(rng, levels)
		lvi := make([]uint16, n)
		list := make([]uint16, n)
		for i := range lvi {
			lvi[i] = uint16(rng.Intn(levels))
			list[i] = uint16(rng.Intn(n))
		}
		xref := refCounts(n, func(i, c int) uint64 {
			return lvl[int(lvi[i])*groupCols+c] ^ base[i*groupCols+c]
		})
		gref := refCounts(n, func(i, c int) uint64 { return base[int(list[i])*groupCols+c] })
		wantX, wantG := dirty(), dirty()
		pureGo.xor(wantX, base, lvl, lvi, hiN)
		pureGo.gather(wantG, base, list, hiN)
		for _, k := range hostKernels() {
			got := dirty()
			k.xor(got, base, lvl, lvi, hiN)
			checkPlanes(t, fmt.Sprintf("%s xor n=%d", k.name, n), got, wantX, hiN, xref)
			got = dirty()
			k.gather(got, base, list, hiN)
			checkPlanes(t, fmt.Sprintf("%s gather n=%d", k.name, n), got, wantG, hiN, gref)
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
