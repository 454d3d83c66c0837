// Package hdc implements the hyperdimensional computing substrate the paper
// builds on: random base (item) memories, level memories, the two encodings
// of Eq. 2, class-hypervector models (Eq. 3), cosine-similarity inference
// (Eq. 4) and mispredict-driven retraining (Eq. 5).
//
// Everything downstream — quantization, pruning, differential privacy, the
// reconstruction attack and the hardware path — operates on the types
// defined here.
package hdc

import (
	"errors"
	"fmt"

	"privehd/internal/encslice"
	"privehd/internal/intscore"
)

// Config describes the geometry of an HD encoding.
type Config struct {
	// Dim is the hypervector dimensionality D_hv (~10,000 in the paper).
	Dim int
	// Features is the input dimensionality D_iv (617 for ISOLET, 784 for
	// MNIST, 608 for FACE), below encslice.MaxFeatures.
	Features int
	// Levels is the number of feature quantization levels ℓ_iv of Eq. 1,
	// at most encslice.MaxLevels.
	Levels int
	// Seed determines the random base and level memories; equal configs
	// with equal seeds produce identical encoders.
	Seed uint64
}

// Validate reports whether the configuration is usable. A geometry beyond
// the encoding engine's limits fails with an error wrapping ErrGeometry.
func (c Config) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("hdc: Dim must be positive, got %d", c.Dim)
	case c.Features <= 0:
		return fmt.Errorf("hdc: Features must be positive, got %d", c.Features)
	case c.Levels < 2:
		return fmt.Errorf("hdc: Levels must be at least 2, got %d", c.Levels)
	case c.Levels > encslice.MaxLevels:
		return fmt.Errorf("%w: %d levels exceeds the limit %d", ErrGeometry, c.Levels, encslice.MaxLevels)
	case c.Features >= encslice.MaxFeatures:
		return fmt.Errorf("%w: %d features reaches the limit %d", ErrGeometry, c.Features, encslice.MaxFeatures)
	}
	return nil
}

// ErrGeometry is returned for a geometry the bit-sliced encoding engine
// cannot encode: more than encslice.MaxLevels levels, encslice.MaxFeatures
// or more features, and, for the scalar encoding, more than
// encslice.MaxLevels features or features×(ℓ−1) beyond MaxInt32.
var ErrGeometry = errors.New("hdc: geometry beyond the encoding engine")

// ErrDimension is returned when a vector's length does not match the
// encoder or model geometry.
var ErrDimension = errors.New("hdc: dimension mismatch")

// LevelIndex maps a normalized feature value v ∈ [0,1] to its quantization
// level in [0, levels). Values outside [0,1] clamp and NaN maps to level 0,
// so denormalized inputs degrade gracefully instead of corrupting memory
// lookups.
func LevelIndex(v float64, levels int) int {
	if !(v > 0) {
		return 0
	}
	if v >= 1 {
		return levels - 1
	}
	idx := int(v * float64(levels))
	if idx >= levels {
		idx = levels - 1
	}
	return idx
}

// LevelValue returns the representative scalar f for a level index, i.e. the
// member of the feature set F = {f_0 … f_{ℓ−1}} of Eq. 1. Levels are evenly
// spaced on [0,1]: f_i = i/(ℓ−1), so f_0 = 0 and f_{ℓ−1} = 1.
func LevelValue(idx, levels int) float64 {
	if levels <= 1 {
		return 0
	}
	return float64(idx) / float64(levels-1)
}

// Encoder maps a normalized feature vector to its encoded hypervector on
// the bit-sliced engine. The two paper encodings, ScalarEncoder and
// LevelEncoder, are its only implementations.
type Encoder interface {
	// Encode returns a fresh hypervector of length Dim for the given
	// feature vector of length Features.
	Encode(features []float64) []float64
	// EncodeInto encodes into the caller's Dim-length buffer and returns it.
	EncodeInto(features, h []float64) []float64
	// EncodePackedInto writes the scheme's quantization of the encoding
	// into the planes dst (Dim dimensions), straight from the engine's
	// counters. It panics on SchemeNone.
	EncodePackedInto(features []float64, scheme encslice.Scheme, dst intscore.Planes)
	// Dim returns the hypervector dimensionality D_hv.
	Dim() int
	// NumFeatures returns the input dimensionality D_iv.
	NumFeatures() int
	// encodeRows encodes len(X) feature rows into the contiguous buffer h
	// (len(X)×Dim) on the engine: the encodings under SchemeNone, else
	// their quantizations for the scheme as −2…+1 symbols.
	encodeRows(X [][]float64, scheme encslice.Scheme, h []float64)
}

// BaseProvider is implemented by encoders whose base hypervectors are
// exposed; the reconstruction attack (paper Eq. 9–10) needs them.
type BaseProvider interface {
	Encoder
	// BaseInto writes base hypervector B_k as ±1 floats into the caller's
	// Dim-length buffer and returns it. Concurrent calls are safe.
	BaseInto(k int, dst []float64) []float64
}
