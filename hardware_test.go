package privehd_test

import (
	"math/rand"
	"testing"

	"privehd"
)

// TestHardwareExactQuantizeMatchesEdge pins the public hardware path to
// the serving edge: the exact popcount majority over the encoder's
// partial-product planes, ties going up, is the bipolar sign of the level
// encoding with zero mapped to +1, which is what an unmasked quantizing
// level edge sends. Even feature counts exercise the ties.
func TestHardwareExactQuantizeMatchesEdge(t *testing.T) {
	for _, g := range []struct{ dim, features int }{
		{1000, 37}, {1001, 37}, {1000, 36}, {1001, 12},
	} {
		rng := rand.New(rand.NewSource(int64(g.dim + g.features)))
		X := make([][]float64, 24)
		y := make([]int, len(X))
		for i := range X {
			y[i] = i % 2
			X[i] = make([]float64, g.features)
			for k := range X[i] {
				X[i][k] = 0.5*float64(y[i]) + 0.5*rng.Float64()
			}
		}
		opts := []privehd.Option{
			privehd.WithDim(g.dim), privehd.WithLevels(10), privehd.WithSeed(3),
			privehd.WithEncoding(privehd.Level), privehd.WithQuantizer("full"), privehd.WithRetrain(0),
		}
		p, err := privehd.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Train(X, y); err != nil {
			t.Fatal(err)
		}
		hw, err := p.Hardware(1)
		if err != nil {
			t.Fatal(err)
		}
		edge, err := p.Edge()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := p.Edge(privehd.WithRawQueries())
		if err != nil {
			t.Fatal(err)
		}
		ties := 0
		for i, x := range X {
			want, err := edge.Prepare(x)
			if err != nil {
				t.Fatal(err)
			}
			got := hw.ExactQuantize(x)
			if len(got) != len(want) {
				t.Fatalf("%+v sample %d: ExactQuantize has %d dimensions, edge %d", g, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%+v sample %d dim %d: ExactQuantize %v, edge %v", g, i, j, got[j], want[j])
				}
			}
			h, err := raw.Prepare(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range h {
				if v == 0 {
					ties++
				}
			}
		}
		if g.features%2 == 0 && ties == 0 {
			t.Errorf("%+v: no tied dimension in %d samples, so ties went untested", g, len(X))
		}
	}
}
