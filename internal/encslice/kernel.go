package encslice

import "sync"

// groupCols is the column group width G: the item memory stores G word
// columns (64·G dimensions) of every vector contiguously, and a kernel
// counts one group per pass.
const groupCols = 8

// planes is one group's CSA counter state: lane j of column c has plane
// count ones[c]_j | twos[c]_j<<1 | fours[c]_j<<2 | eights[c]_j<<3 |
// hi[l][c]_j<<(4+l). The field order is the kernels' memory layout: ones
// at byte 0, twos at 64, fours at 128, eights at 192, hi[l] at 256+64·l.
type planes struct {
	ones, twos, fours, eights [groupCols]uint64
	hi                        [hiPlanes][groupCols]uint64
}

// planesPool holds the kernels' output blocks. The kernels are called
// through a function variable, so a stack-allocated block would escape on
// every call.
var planesPool = sync.Pool{New: func() any { return new(planes) }}

// kernel is one implementation of the group accumulation. Both entries
// count planes that are rows of groupCols words and overwrite out's
// ones…eights and hi[:hiN] with the counts (hiN is the engine's high-plane
// depth; hi[hiN:] is left as it was):
//
//   - xor counts the len(lvi) planes lvl row lvi[k] ⊕ base row k: the
//     mismatches of the Eq. 2b partial products, whose complement is the
//     XNOR count;
//   - gather counts the planes base row list[i], a scalar digit group.
//
// Callers guarantee every index is a row of its memory.
type kernel struct {
	name   string
	xor    func(out *planes, base, lvl []uint64, lvi []uint16, hiN int)
	gather func(out *planes, base []uint64, list []uint16, hiN int)
}

// pureGo is the portable kernel: the 64-lane CSA tree, one column of the
// group at a time.
var pureGo = kernel{name: "purego", xor: xorGo, gather: gatherGo}

// kern is the kernel every encode runs: the widest one the CPU supports,
// picked once at package init.
var kern = func() kernel {
	ks := hostKernels()
	return ks[len(ks)-1]
}()

// hostKernels lists the kernels this host can run, narrowest first; the
// pure-Go kernel is always first.
func hostKernels() []kernel {
	return append([]kernel{pureGo}, simdKernels()...)
}

// column is one word column's counter slices, the pure-Go kernel's
// accumulator.
type column struct {
	ones, twos, fours, eights uint64
	hi                        [hiPlanes]uint64
}

func xorGo(out *planes, base, lvl []uint64, lvi []uint16, hiN int) {
	n := len(lvi)
	for c := 0; c < groupCols; c++ {
		b, l := base[c:], lvl[c:]
		plane := func(k int) uint64 { return l[int(lvi[k])*groupCols] ^ b[k*groupCols] }
		var col column
		k := 0
		for ; k+8 <= n; k += 8 {
			col.add8(plane(k), plane(k+1), plane(k+2), plane(k+3),
				plane(k+4), plane(k+5), plane(k+6), plane(k+7))
		}
		for ; k < n; k++ {
			col.add1(plane(k))
		}
		col.store(out, c, hiN)
	}
}

func gatherGo(out *planes, base []uint64, list []uint16, hiN int) {
	n := len(list)
	for c := 0; c < groupCols; c++ {
		b := base[c:]
		plane := func(i int) uint64 { return b[int(list[i])*groupCols] }
		var col column
		i := 0
		for ; i+8 <= n; i += 8 {
			col.add8(plane(i), plane(i+1), plane(i+2), plane(i+3),
				plane(i+4), plane(i+5), plane(i+6), plane(i+7))
		}
		for ; i < n; i++ {
			col.add1(plane(i))
		}
		col.store(out, c, hiN)
	}
}

// add8 absorbs eight planes: seven carry-save adders in three layers
// compress them against the ones/twos/fours slices and emit one
// eight-weight carry e, added into eights, whose own carry ripples into
// the high counter stack.
func (col *column) add8(p0, p1, p2, p3, p4, p5, p6, p7 uint64) {
	var t0, t1, f0, f1, e uint64
	col.ones, t0 = csa(col.ones, p0, p1)
	col.ones, t1 = csa(col.ones, p2, p3)
	col.twos, f0 = csa(col.twos, t0, t1)
	col.ones, t0 = csa(col.ones, p4, p5)
	col.ones, t1 = csa(col.ones, p6, p7)
	col.twos, f1 = csa(col.twos, t0, t1)
	col.fours, e = csa(col.fours, f0, f1)
	col.carry(col.eights & e)
	col.eights ^= e
}

// csa is one carry-save adder, evaluated lane-wise over 64 dimensions:
// sum = a⊕b⊕c, carry = maj(a,b,c).
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// carry ripples a sixteen-weight carry word up the high counter stack.
func (col *column) carry(c uint64) {
	for l := 0; c != 0; l++ {
		col.hi[l], c = col.hi[l]^c, col.hi[l]&c
	}
}

// add1 absorbs a single plane by rippling it up the counter slices.
func (col *column) add1(x uint64) {
	col.ones, x = col.ones^x, col.ones&x
	col.twos, x = col.twos^x, col.twos&x
	col.fours, x = col.fours^x, col.fours&x
	col.eights, x = col.eights^x, col.eights&x
	col.carry(x)
}

// store writes the column's slices into column c of out.
func (col *column) store(out *planes, c, hiN int) {
	out.ones[c], out.twos[c], out.fours[c], out.eights[c] = col.ones, col.twos, col.fours, col.eights
	for l := 0; l < hiN; l++ {
		out.hi[l][c] = col.hi[l]
	}
}

// counts reads the first nd lane counts of column c off the counter slices
// into dst; hiN is the engine's high-plane depth. This is the single
// read-off used by every encode, so the counter representation is
// interpreted in exactly one place.
func (pl *planes) counts(c int, dst *[64]int32, nd, hiN int) {
	ones, twos, fours, eights := pl.ones[c], pl.twos[c], pl.fours[c], pl.eights[c]
	for b := 0; b < nd; b++ {
		dst[b] = int32(ones>>b&1) |
			int32(twos>>b&1)<<1 |
			int32(fours>>b&1)<<2 |
			int32(eights>>b&1)<<3
	}
	for l := 0; l < hiN; l++ {
		w := pl.hi[l][c]
		for b := 0; b < nd; b++ {
			dst[b] |= int32(w>>b&1) << (4 + l)
		}
	}
}

// atLeast returns the lanes of column c whose plane count is at least t
// (hiN is the engine's high-plane depth). It compares the counter slices
// against the constant MSB first: gt holds the lanes already known to
// exceed t, eq the lanes equal to it so far.
func (pl *planes) atLeast(c int, t uint, hiN int) uint64 {
	gt, eq := uint64(0), ^uint64(0)
	for l := hiN - 1; l >= 0; l-- {
		gt, eq = cmpBit(gt, eq, pl.hi[l][c], t>>(4+l)&1)
	}
	gt, eq = cmpBit(gt, eq, pl.eights[c], t>>3&1)
	gt, eq = cmpBit(gt, eq, pl.fours[c], t>>2&1)
	gt, eq = cmpBit(gt, eq, pl.twos[c], t>>1&1)
	gt, eq = cmpBit(gt, eq, pl.ones[c], t&1)
	return gt | eq
}

// cmpBit is one comparator step against constant bit tb: lanes still equal
// whose counter bit p exceeds tb become greater, and lanes whose bit
// differs from tb leave the equal set.
func cmpBit(gt, eq, p uint64, tb uint) (uint64, uint64) {
	if tb != 0 {
		return gt, eq & p
	}
	return gt | eq&p, eq &^ p
}
