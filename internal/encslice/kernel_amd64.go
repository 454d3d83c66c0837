//go:build amd64 && !purego

package encslice

import "privehd/internal/cpu"

// simdKernels lists the assembly kernels the CPU and the OS support,
// narrowest first: AVX2, then AVX-512 (AVX512F).
func simdKernels() []kernel {
	var ks []kernel
	if cpu.AVX2 {
		ks = append(ks, kernel{name: "avx2", xor: xor256, gather: gather256})
	}
	if cpu.AVX512F {
		ks = append(ks, kernel{name: "avx512", xor: xor512, gather: gather512})
	}
	return ks
}

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
