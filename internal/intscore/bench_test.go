package intscore_test

import (
	"math/rand"
	"testing"

	"privehd/internal/intscore"
	"privehd/internal/vecmath"
)

// benchSetup builds the acceptance geometry: D=4000, 26 classes (ISOLET-
// shaped), integer class prototypes as bundling produces, and a biased-
// ternary-shaped packed query.
func benchSetup() (*intscore.Engine, []int8) {
	const classes, dim = 26, 4000
	rng := rand.New(rand.NewSource(99))
	raw := make([][]float64, classes)
	for l := 0; l < classes; l++ {
		h := make([]float64, dim)
		for i := range h {
			h[i] = float64(rng.Intn(801) - 400)
		}
		raw[l] = h
	}
	q := make([]int8, dim)
	for i := range q {
		// p(0)=1/2, p(±1)=1/4 — the paper-default biased ternary occupancy.
		switch rng.Intn(4) {
		case 0:
			q[i] = 1
		case 1:
			q[i] = -1
		}
	}
	return intscore.Prepare(raw), q
}

// BenchmarkScoresPacked times scoring one packed query against every
// class on the integer-domain engine. Every row is a zero-alloc serving
// path the CI benchmark gate holds at 0 allocs/op: "intscore" times the
// int8 adapter, which splits the query into planes first, and every other
// row the planes entry the server scores with. The per-width ones time
// each kernel at each plane width, and the paper ones the served models'
// geometry, the last of them the partial sums a shard replica returns.
func BenchmarkScoresPacked(b *testing.B) {
	e, q := benchSetup()
	out := make([]float64, e.NumClasses())
	pq := intscore.Split(q)

	b.Run("intscore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.ScoresPackedInto(q, out)
		}
	})
	b.Run("intscore-predict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vecmath.ArgMax(e.ScoresInto(pq, out))
		}
	})

	// One engine per plane width at the same geometry, each timed on a
	// bipolar query and a half-zero query. At int16 and int32 these take
	// the dense and the gather kernel, and the rows are named after them;
	// int8 engines score both on the bit-plane kernel, here with 8 planes
	// (|v| ≤ 100), and the rows are named after the query.
	rng := rand.New(rand.NewSource(100))
	dense, gather := make([]int8, len(q)), make([]int8, len(q))
	for i := range dense {
		dense[i] = int8(2*rng.Intn(2) - 1)
		gather[i] = int8(rng.Intn(2) * (2*rng.Intn(2) - 1))
	}
	pdense, pgather := intscore.Split(dense), intscore.Split(gather)
	for _, w := range []struct {
		name string
		mag  int
	}{{"int8", 100}, {"int16", 400}, {"int32", 40000}} {
		raw := make([][]float64, e.NumClasses())
		for l := range raw {
			raw[l] = make([]float64, len(q))
			for i := range raw[l] {
				raw[l][i] = float64(rng.Intn(2*w.mag+1) - w.mag)
			}
		}
		we := intscore.Prepare(raw)
		names := [2]string{"dense", "gather"}
		if w.name == "int8" {
			names = [2]string{"bipolar", "halfzero"}
		}
		for k, pq := range []intscore.Planes{pdense, pgather} {
			b.Run(w.name+"-"+names[k], func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					we.ScoresInto(pq, out)
				}
			})
		}
	}

	// The served models are int8-width: bundling a few dozen quantized
	// encodings per class keeps |v| < 32, so they score on 6 bit-planes.
	// The edge sends a bipolar query, or with a query mask one whose
	// masked half is zero.
	raw := make([][]float64, e.NumClasses())
	for l := range raw {
		raw[l] = make([]float64, len(q))
		for i := range raw[l] {
			raw[l][i] = float64(rng.Intn(63) - 31)
		}
	}
	pe := intscore.Prepare(raw)
	masked := make([]int8, len(q))
	copy(masked, dense)
	for _, i := range rng.Perm(len(q))[:len(q)/2] {
		masked[i] = 0
	}
	for _, k := range []struct {
		name string
		q    intscore.Planes
	}{{"bipolar", pdense}, {"masked", intscore.Split(masked)}} {
		b.Run("paper-"+k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pe.ScoresInto(k.q, out)
			}
		})
	}

	// A model served on two dimension shards at D = 10 000: each replica
	// scores its 5 000-dimension slice of a half-masked query to partial
	// sums.
	const sliceDim = 5000
	for l := range raw {
		raw[l] = make([]float64, sliceDim)
		for i := range raw[l] {
			raw[l][i] = float64(rng.Intn(63) - 31)
		}
	}
	se := intscore.Prepare(raw)
	sq := make([]int8, sliceDim)
	for i := range sq {
		sq[i] = int8(2*rng.Intn(2) - 1)
	}
	for _, i := range rng.Perm(sliceDim)[:sliceDim/2] {
		sq[i] = 0
	}
	psq, partials := intscore.Split(sq), make([]int64, se.NumClasses())
	b.Run("paper-partials-d5k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			se.PartialsInto(psq, partials)
		}
	})
}
