// Package vecmath provides the dense float64 vector kernels and the
// statistical helpers that the rest of the Prive-HD reproduction is built on.
//
// Hypervectors, class vectors and encoded queries are all plain []float64
// slices; this package keeps the hot loops (dot products, norms, scaled
// accumulation) in one place so the HD, quantization and privacy layers can
// share a single audited implementation.
package vecmath

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// ErrLength is returned by checked operations when two vectors that must
// share a length do not.
var ErrLength = errors.New("vecmath: vector length mismatch")

// Dot returns the inner product of a and b. It panics if the lengths differ,
// mirroring the behaviour of slice indexing; use CheckedDot for an error
// return instead.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// CheckedDot is Dot with an error return instead of a panic.
func CheckedDot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLength
	}
	return Dot(a, b), nil
}

// Norm2 returns the Euclidean (ℓ2) norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the ℓ1 norm of v.
func Norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Cosine returns the cosine similarity of a and b, the δ(·,·) of paper
// Eq. 4. It returns 0 when either vector has zero norm, which keeps argmax
// classification well-defined for empty classes.
func Cosine(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Add accumulates src into dst element-wise: dst[i] += src[i].
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: Add length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Sub subtracts src from dst element-wise: dst[i] -= src[i].
func Sub(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: Sub length mismatch")
	}
	for i, v := range src {
		dst[i] -= v
	}
}

// AddScaled accumulates alpha*src into dst: dst[i] += alpha*src[i].
func AddScaled(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: AddScaled length mismatch")
	}
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// Scale multiplies v in place by alpha.
func Scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// ArgMax returns the index of the largest element of v, or -1 for an empty
// slice. Ties resolve to the lowest index, which keeps classification
// deterministic.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or 0 for slices shorter
// than one element.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// MSE returns the mean squared error between a and b.
func MSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: MSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s / float64(len(a))
}

// PSNR returns the peak signal-to-noise ratio, in dB, between a reference
// signal and its reconstruction, given the peak value of the reference
// domain (e.g. 255 for 8-bit images, 1 for normalized features). It returns
// +Inf for a perfect reconstruction.
func PSNR(ref, recon []float64, peak float64) float64 {
	mse := MSE(ref, recon)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(peak*peak/mse)
}

// FoldedNormalMean returns E|X| for X ~ N(mu, sigma^2), the folded normal
// mean of paper Eq. 11.
func FoldedNormalMean(mu, sigma float64) float64 {
	if sigma == 0 {
		return math.Abs(mu)
	}
	return sigma*math.Sqrt(2/math.Pi)*math.Exp(-mu*mu/(2*sigma*sigma)) +
		mu*(1-2*NormalCDF(-mu/sigma))
}

// NormalCDF returns the standard normal cumulative distribution function
// Φ(x), computed from the error function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the values in v using
// linear interpolation on a sorted copy. It is used to pick biased
// quantization thresholds. An empty input returns 0.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := Clone(v)
	insertionSortOrHeap(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// insertionSortOrHeap sorts s ascending. Heapsort keeps worst-case O(n log n)
// without importing sort (which would also be fine, but this keeps Quantile
// allocation-free beyond the clone).
func insertionSortOrHeap(s []float64) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDown(s, 0, i)
	}
}

func siftDown(s []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && s[child+1] > s[child] {
			child++
		}
		if s[root] >= s[child] {
			return
		}
		s[root], s[child] = s[child], s[root]
		root = child
	}
}

// AbsRank returns the indices of v ordered by ascending |v[i]|. It is the
// ordering used by model pruning: close-to-zero dimensions come first.
// Ties order by index, so the result is deterministic.
func AbsRank(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(math.Abs(v[a]), math.Abs(v[b]))
	})
	return idx
}
