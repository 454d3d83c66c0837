//go:build amd64 && !purego

package encslice

// simdKernels lists the assembly kernels the CPU and the OS support,
// narrowest first: AVX2 needs the AVX2 instructions and OS-saved YMM
// state, AVX-512 the AVX512F instructions and OS-saved ZMM and opmask
// state.
func simdKernels() []kernel {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return nil
	}
	const (
		osxsave  = 1 << 27         // CPUID.1:ECX
		avx      = 1 << 28         // CPUID.1:ECX
		avx2     = 1 << 5          // CPUID.7.0:EBX
		avx512f  = 1 << 16         // CPUID.7.0:EBX
		ymmState = 1<<1 | 1<<2     // XCR0: SSE and AVX state
		zmmState = ymmState | 7<<5 // XCR0: plus opmask, ZMM_Hi256, Hi16_ZMM
	)
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return nil
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	var ks []kernel
	if xcr0&ymmState == ymmState && ebx7&avx2 != 0 {
		ks = append(ks, kernel{name: "avx2", xor: xor256, gather: gather256})
	}
	if xcr0&zmmState == zmmState && ebx7&avx512f != 0 {
		ks = append(ks, kernel{name: "avx512", xor: xor512, gather: gather512})
	}
	return ks
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns extended control register 0, the state the OS saves.
func xgetbv() (lo, hi uint32)

// xor512 and gather512 are the AVX-512F kernel entries: a group's eight
// columns in one ZMM register per counter slice, the high stack in
// registers too.
//
//go:noescape
func xor512(out *planes, base, lvl []uint64, lvi []uint16, hiN int)

//go:noescape
func gather512(out *planes, base []uint64, list []uint16, hiN int)

// xor256 and gather256 are the AVX2 kernel entries: a group as two
// four-column halves in YMM registers, the high stack in out.
//
//go:noescape
func xor256(out *planes, base, lvl []uint64, lvi []uint16, hiN int)

//go:noescape
func gather256(out *planes, base []uint64, list []uint16, hiN int)
