//go:build !amd64 || purego

package intscore

// simdKernels is empty off amd64 and under the purego tag: every score
// runs the pure-Go kernel.
func simdKernels() []kernel { return nil }
