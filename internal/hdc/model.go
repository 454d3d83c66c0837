package hdc

import (
	"fmt"
	"math"
	"sync/atomic"

	"privehd/internal/intscore"
	"privehd/internal/vecmath"
)

// Model is the set of class hypervectors ~C_l of paper Eq. 3. Class vectors
// are kept as raw (unnormalized) bundles; inference divides by the cached
// class norm, implementing the Eq. 4 simplification that drops the
// query-norm factor shared by every class.
type Model struct {
	dim     int
	classes [][]float64
	counts  []int // training vectors bundled per class, for diagnostics
	norms   []float64
	dirty   []bool

	// scorer is the integer-domain scoring engine, set by Precompute and
	// cleared by any mutation — the same freshness discipline as the norm
	// caches, but an atomic pointer, so concurrent readers never see a
	// half-prepared engine.
	scorer atomic.Pointer[intscore.Engine]
}

// NewModel returns an empty model with the given number of classes and
// hypervector dimensionality.
func NewModel(numClasses, dim int) *Model {
	if numClasses <= 0 || dim <= 0 {
		panic(fmt.Sprintf("hdc: NewModel(%d, %d): arguments must be positive", numClasses, dim))
	}
	m := &Model{
		dim:     dim,
		classes: make([][]float64, numClasses),
		counts:  make([]int, numClasses),
		norms:   make([]float64, numClasses),
		dirty:   make([]bool, numClasses),
	}
	for i := range m.classes {
		m.classes[i] = make([]float64, dim)
		m.dirty[i] = true
	}
	return m
}

// NumClasses returns the number of classes.
func (m *Model) NumClasses() int { return len(m.classes) }

// Dim returns the hypervector dimensionality.
func (m *Model) Dim() int { return m.dim }

// Count returns how many encodings have been bundled into class l (adds
// minus removes).
func (m *Model) Count(l int) int { return m.counts[l] }

// Class returns the raw class hypervector for label l. The returned slice
// is the model's backing storage: mutating it requires calling Invalidate.
func (m *Model) Class(l int) []float64 { return m.classes[l] }

// Invalidate marks class l's cached norm stale after external mutation
// (pruning and the DP privatizer edit class vectors in place).
func (m *Model) Invalidate(l int) {
	m.dirty[l] = true
	m.scorer.Store(nil)
}

// InvalidateAll marks every cached norm stale.
func (m *Model) InvalidateAll() {
	for l := range m.dirty {
		m.dirty[l] = true
	}
	m.scorer.Store(nil)
}

// Add bundles encoding h into class l (Eq. 3 / first half of Eq. 5).
func (m *Model) Add(l int, h []float64) {
	if len(h) != m.dim {
		panic(ErrDimension)
	}
	vecmath.Add(m.classes[l], h)
	m.counts[l]++
	m.dirty[l] = true
	m.scorer.Store(nil)
}

// Sub removes encoding h from class l (second half of Eq. 5).
func (m *Model) Sub(l int, h []float64) {
	if len(h) != m.dim {
		panic(ErrDimension)
	}
	vecmath.Sub(m.classes[l], h)
	m.counts[l]--
	m.dirty[l] = true
	m.scorer.Store(nil)
}

// norm returns the cached ℓ2 norm of class l, refreshing it if stale.
func (m *Model) norm(l int) float64 {
	if m.dirty[l] {
		m.norms[l] = vecmath.Norm2(m.classes[l])
		m.dirty[l] = false
	}
	return m.norms[l]
}

// Precompute refreshes every cached class norm so that subsequent Scores and
// Predict calls are read-only — a requirement for serving one model from
// many goroutines — and derives the integer-domain scoring engine for
// packed queries (PackedScorer). Mutating the model (Add, Sub, Invalidate)
// after Precompute reintroduces lazy refresh, drops the engine, and is not
// safe concurrently with inference.
func (m *Model) Precompute() {
	for l := range m.classes {
		m.norm(l)
	}
	m.scorer.Store(intscore.Prepare(m.classes))
}

// PackedScorer returns the integer scoring engine derived by the last
// Precompute, or nil if the model was mutated (or never precomputed) since
// or has a non-finite class coordinate. The engine is immutable and safe
// for concurrent use.
func (m *Model) PackedScorer() *intscore.Engine { return m.scorer.Load() }

// Scores returns the norm-adjusted similarity H·C_l/‖C_l‖ for every class.
// Per Eq. 4 the query-norm factor is identical across classes and omitted,
// so Scores are proportional to cosine similarity. Classes with zero norm
// score −Inf so they never win the argmax.
func (m *Model) Scores(h []float64) []float64 {
	return m.ScoresInto(h, make([]float64, len(m.classes)))
}

// ScoresInto is Scores writing into a caller-provided NumClasses-length
// buffer — the allocation-free form for pooled serving hot paths. It
// returns out.
func (m *Model) ScoresInto(h, out []float64) []float64 {
	if len(h) != m.dim {
		panic(ErrDimension)
	}
	if len(out) != len(m.classes) {
		panic(fmt.Sprintf("hdc: ScoresInto buffer has %d slots, model has %d classes",
			len(out), len(m.classes)))
	}
	for l := range m.classes {
		n := m.norm(l)
		if n == 0 {
			out[l] = math.Inf(-1)
			continue
		}
		out[l] = vecmath.Dot(h, m.classes[l]) / n
	}
	return out
}

// ScoresPlanesInto is ScoresInto for a quantized query in its bit-plane
// form, scored on the integer engine (see the intscore package for how
// closely it follows ScoresInto on the float64 expansion of q) without
// ever expanding the query. A model mutated since Precompute precomputes
// first, which is not safe concurrently with other inference. A model with
// a non-finite class coordinate has no engine, and panics.
func (m *Model) ScoresPlanesInto(q intscore.Planes, out []float64) []float64 {
	if q.Dim != m.dim {
		panic(ErrDimension)
	}
	if m.PackedScorer() == nil {
		m.Precompute()
	}
	return m.PackedScorer().ScoresInto(q, out)
}

// Predict returns the label with the highest similarity score for the
// encoded query h.
func (m *Model) Predict(h []float64) int {
	return vecmath.ArgMax(m.Scores(h))
}

// Cosine returns the exact cosine similarity δ(H, C_l) of Eq. 4 (including
// the query norm), used by the information-retention experiment (Fig. 3).
func (m *Model) Cosine(h []float64, l int) float64 {
	if len(h) != m.dim {
		panic(ErrDimension)
	}
	return vecmath.Cosine(h, m.classes[l])
}

// Slice returns a new model holding classes [classOff, classOff+classCount)
// restricted to dimensions [dimOff, dimOff+dimLen) — the shard a replica
// serves when one logical model is split across a fleet. It is cut from
// the parent's integer serving form (intscore.Fixed), so a non-integer
// model's slices share the whole model's fixed-point scale and their
// partial scores add up across a fleet; an integer model's are plain
// copies. The slice is a deep copy (mutating it never touches the parent)
// and is not precomputed; registering it derives its own scoring engine
// over the sub-ranges. Counts carry over so diagnostics still report
// training volume.
func (m *Model) Slice(dimOff, dimLen, classOff, classCount int) *Model {
	if dimOff < 0 || dimLen <= 0 || dimOff+dimLen > m.dim {
		panic(fmt.Sprintf("hdc: Slice dims [%d:%d) outside model dim %d", dimOff, dimOff+dimLen, m.dim))
	}
	if classOff < 0 || classCount <= 0 || classOff+classCount > len(m.classes) {
		panic(fmt.Sprintf("hdc: Slice classes [%d:%d) outside model's %d classes",
			classOff, classOff+classCount, len(m.classes)))
	}
	src := intscore.Fixed(m.classes)
	if src == nil {
		src = m.classes // non-finite: refused when the slice is published
	}
	s := NewModel(classCount, dimLen)
	for k := 0; k < classCount; k++ {
		copy(s.classes[k], src[classOff+k][dimOff:dimOff+dimLen])
		s.counts[k] = m.counts[classOff+k]
	}
	return s
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := NewModel(len(m.classes), m.dim)
	for l := range m.classes {
		copy(c.classes[l], m.classes[l])
		c.counts[l] = m.counts[l]
	}
	return c
}
