//go:build amd64 && !purego

package intscore

import "privehd/internal/cpu"

// simdKernels lists the assembly kernels the CPU and the OS support: the
// AVX-512 one needs AVX512F, AVX512_VPOPCNTDQ and OS-saved ZMM and opmask
// state.
func simdKernels() []kernel {
	if cpu.AVX512VPOPCNTDQ {
		return []kernel{{name: "avx512", rowDot: rowDot512}}
	}
	return nil
}

// rowDot512 is the AVX-512 VPOPCNTDQ row kernel: eight words of each
// plane per step, one ZMM accumulator pair per class plane.
//
//go:noescape
func rowDot512(q, row []uint64, b int) int64
