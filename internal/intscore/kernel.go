package intscore

import "math/bits"

// kernel is one implementation of the bit-plane row dot: rowDot returns
// Σ_i s_i·C[i] for the query q (lo plane then hi plane, s = lo − 2·hi)
// against one class row of b two's-complement bit-planes, each
// len(q)/2 words, laid out as bitPlanes lays a class out.
type kernel struct {
	name   string
	rowDot func(q, row []uint64, b int) int64
}

// pureGo is the portable kernel, and the reference the assembly ones are
// tested against.
var pureGo = kernel{name: "purego", rowDot: rowDotGo}

// kern is the kernel every bit-plane score runs: the widest one the CPU
// supports, picked once at package init.
var kern = func() kernel {
	ks := hostKernels()
	return ks[len(ks)-1]
}()

// hostKernels lists the kernels this host can run, narrowest first; the
// pure-Go kernel is always first.
func hostKernels() []kernel {
	return append([]kernel{pureGo}, simdKernels()...)
}

// rowDotGo takes the class planes two at a time, so each query word
// loaded feeds four popcounts; an odd last plane is paired with itself.
func rowDotGo(q, row []uint64, b int) int64 {
	ws := len(q) / 2
	lo, hi := q[:ws], q[ws:2*ws]
	var n [8]int // n[j] = Σ s·bit over plane j
	j := 0
	for ; j+2 <= b; j += 2 {
		n[j], n[j+1] = planeDot2(lo, hi, row[j*ws:(j+1)*ws], row[(j+1)*ws:(j+2)*ws])
	}
	if j < b {
		n[j], _ = planeDot2(lo, hi, row[j*ws:], row[j*ws:])
	}
	dot := -int64(n[b-1]) << (b - 1)
	for j := 0; j < b-1; j++ {
		dot += int64(n[j]) << j
	}
	return dot
}

// planeDot2 returns Σ s·c over two class planes c0 and c1:
// popcnt(lo ∧ c) − 2·popcnt(hi ∧ c), word by word.
func planeDot2(lo, hi, c0, c1 []uint64) (n0, n1 int) {
	lo, hi, c1 = lo[:len(c0)], hi[:len(c0)], c1[:len(c0)]
	var l0, h0, l1, h1 int
	for w, x := range c0 {
		l, h, y := lo[w], hi[w], c1[w]
		l0 += bits.OnesCount64(l & x)
		h0 += bits.OnesCount64(h & x)
		l1 += bits.OnesCount64(l & y)
		h1 += bits.OnesCount64(h & y)
	}
	return l0 - 2*h0, l1 - 2*h1
}
