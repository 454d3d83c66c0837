package offload

import (
	"math/rand"
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/intscore"
)

// packedTestModel builds an integer-valued model of the kind training
// produces (bundles of quantized encodings).
func packedTestModel(classes, dim int) *hdc.Model {
	m := hdc.NewModel(classes, dim)
	rng := rand.New(rand.NewSource(77))
	for l := 0; l < classes; l++ {
		h := make([]float64, dim)
		for i := range h {
			h[i] = float64(rng.Intn(4) - 2)
		}
		m.Add(l, h)
	}
	return m
}

// TestServerScoresPackedOnIntegerEngine asserts the server answers a packed
// frame through the registry entry's integer engine with exactly the same
// labels and scores as the equivalent full-precision frame — the wire-level
// form of the intscore equivalence contract.
func TestServerScoresPackedOnIntegerEngine(t *testing.T) {
	const classes, dim = 7, 301
	s := NewServer(packedTestModel(classes, dim))
	defer s.Close()

	entry, err := s.Registry().Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Scorer == nil {
		t.Fatal("registered entry carries no integer scorer")
	}
	if entry.Scorer.NumClasses() != classes {
		t.Fatalf("scorer has %d classes, want %d", entry.Scorer.NumClasses(), classes)
	}

	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		packed := make([]int8, dim)
		vector := make([]float64, dim)
		for i := range packed {
			packed[i] = int8(rng.Intn(4)) - 2
			vector[i] = float64(packed[i])
		}
		pr := s.answer("", Request{Queries: []Query{{Packed: intscore.Split(packed)}}}, nil)
		vr := s.answer("", Request{Queries: []Query{{Vector: vector}}}, nil)
		if pr.Code != "" || vr.Code != "" {
			t.Fatalf("unexpected reply codes %q / %q", pr.Code, vr.Code)
		}
		p, v := pr.Results[0], vr.Results[0]
		if p.Label != v.Label {
			t.Fatalf("trial %d: packed label %d, vector label %d", trial, p.Label, v.Label)
		}
		for l := range p.Scores {
			if p.Scores[l] != v.Scores[l] {
				t.Fatalf("trial %d class %d: packed score %v != vector score %v",
					trial, l, p.Scores[l], v.Scores[l])
			}
		}
	}
}

// TestServerAbusedQueryBothFields pins the precedence contract for a frame
// that (ab)uses both wire fields: validation sizes the query by Vector, so
// scoring must also use Vector — a valid Vector plus a wrong-length Packed
// must neither panic the scorer nor silently score the Packed form.
func TestServerAbusedQueryBothFields(t *testing.T) {
	const classes, dim = 3, 64
	s := NewServer(packedTestModel(classes, dim))
	defer s.Close()

	vector := make([]float64, dim)
	for i := range vector {
		vector[i] = float64(i%3 - 1)
	}
	// Packed deliberately has the wrong length AND would classify
	// differently if it were ever consulted.
	abused := Query{Vector: vector, Packed: intscore.Split([]int8{1, -1, 1})}
	got := s.answer("", Request{Queries: []Query{abused}}, nil)
	want := s.answer("", Request{Queries: []Query{{Vector: vector}}}, nil)
	if got.Code != "" || want.Code != "" {
		t.Fatalf("unexpected reply codes %q / %q", got.Code, want.Code)
	}
	if got.Results[0].Label != want.Results[0].Label {
		t.Fatalf("abused frame label %d, vector-only label %d", got.Results[0].Label, want.Results[0].Label)
	}
	for l, sc := range got.Results[0].Scores {
		if sc != want.Results[0].Scores[l] {
			t.Fatalf("class %d: abused score %v != vector score %v", l, sc, want.Results[0].Scores[l])
		}
	}
}
