// Package cpu reports the x86 instruction-set extensions the module's
// assembly kernels need, probed once at init from CPUID and XGETBV: an
// extension counts only when the CPU has it and the OS saves the register
// state it uses. Every flag is false off amd64 and under the purego tag,
// where no assembly is built.
package cpu

var (
	// AVX2 reports the AVX2 instructions with OS-saved YMM state.
	AVX2 bool
	// AVX512F reports the AVX512F instructions with OS-saved ZMM and
	// opmask state.
	AVX512F bool
	// AVX512VPOPCNTDQ reports AVX512F plus the AVX512_VPOPCNTDQ vector
	// popcount (VPOPCNTQ).
	AVX512VPOPCNTDQ bool
)
