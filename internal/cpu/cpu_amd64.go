//go:build amd64 && !purego

package cpu

func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	const (
		osxsave   = 1 << 27         // CPUID.1:ECX
		avx       = 1 << 28         // CPUID.1:ECX
		avx2      = 1 << 5          // CPUID.7.0:EBX
		avx512f   = 1 << 16         // CPUID.7.0:EBX
		vpopcntdq = 1 << 14         // CPUID.7.0:ECX
		ymmState  = 1<<1 | 1<<2     // XCR0: SSE and AVX state
		zmmState  = ymmState | 7<<5 // XCR0: plus opmask, ZMM_Hi256, Hi16_ZMM
	)
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return
	}
	xcr0, _ := xgetbv()
	_, ebx7, ecx7, _ := cpuid(7, 0)
	AVX2 = xcr0&ymmState == ymmState && ebx7&avx2 != 0
	AVX512F = xcr0&zmmState == zmmState && ebx7&avx512f != 0
	AVX512VPOPCNTDQ = AVX512F && ecx7&vpopcntdq != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns extended control register 0, the state the OS saves.
func xgetbv() (lo, hi uint32)
