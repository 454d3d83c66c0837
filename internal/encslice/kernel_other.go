//go:build !amd64 || purego

package encslice

// simdKernels is empty off amd64 and under the purego tag: every encode
// runs the pure-Go kernel.
func simdKernels() []kernel { return nil }
