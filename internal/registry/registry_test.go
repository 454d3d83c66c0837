package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"privehd/internal/hdc"
)

// labelModel returns a 2-class dim-4 model that predicts label want for
// the query {1,1,0,0}, so two publications are distinguishable by their
// predictions.
func labelModel(want int) *hdc.Model {
	m := hdc.NewModel(2, 4)
	m.Add(want, []float64{1, 1, 0, 0})
	m.Add(1-want, []float64{0, 0, 1, 1})
	return m
}

func TestRegisterLookupDefault(t *testing.T) {
	r := New()
	if _, err := r.Lookup(""); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("empty registry Lookup = %v, want ErrUnknownModel", err)
	}
	info := EncoderInfo{Encoding: 1, Levels: 16, Features: 40, Seed: 9}
	e, err := r.Register("isolet", labelModel(0), info)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 1 {
		t.Errorf("first publication Version = %d, want 1", e.Version)
	}
	// First registration becomes the default.
	got, err := r.Lookup("")
	if err != nil || got.Name != "isolet" {
		t.Fatalf("Lookup(\"\") = %v, %v; want the isolet entry", got, err)
	}
	if got.Encoder != info {
		t.Errorf("Encoder = %+v, want %+v", got.Encoder, info)
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Lookup(nope) = %v, want ErrUnknownModel", err)
	}
	// Duplicate registration is refused; Swap is the update path.
	if _, err := r.Register("isolet", labelModel(0), info); err == nil {
		t.Error("duplicate Register should fail")
	}
}

func TestSwapBumpsVersionAndKeepsOldEntriesValid(t *testing.T) {
	r := New()
	if _, err := r.Register("m", labelModel(0), EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	old, err := r.Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Swap("m", labelModel(1), EncoderInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != 2 {
		t.Errorf("swapped Version = %d, want 2", e2.Version)
	}
	// The old entry (an in-flight query's view) still predicts with the old
	// model; the new lookup sees the swapped one.
	q := []float64{1, 1, 0, 0}
	if got := old.Model.Predict(q); got != 0 {
		t.Errorf("old entry predicts %d, want 0", got)
	}
	if got := e2.Model.Predict(q); got != 1 {
		t.Errorf("swapped entry predicts %d, want 1", got)
	}
	if _, err := r.Swap("ghost", labelModel(0), EncoderInfo{}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Swap(ghost) = %v, want ErrUnknownModel", err)
	}
}

func TestDeregisterAndSetDefault(t *testing.T) {
	r := New()
	for _, name := range []string{"a", "b"} {
		if _, err := r.Register(name, labelModel(0), EncoderInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	if r.DefaultName() != "a" {
		t.Fatalf("default = %q, want a", r.DefaultName())
	}
	if err := r.SetDefault("b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	// Deregistering the default leaves no default.
	if _, err := r.Lookup(""); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Lookup after default removed = %v, want ErrUnknownModel", err)
	}
	if _, err := r.Lookup("a"); err != nil {
		t.Errorf("named lookup should survive: %v", err)
	}
	if err := r.Deregister("b"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("double Deregister = %v, want ErrUnknownModel", err)
	}
	if err := r.SetDefault("ghost"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("SetDefault(ghost) = %v, want ErrUnknownModel", err)
	}
	models := r.Models()
	if len(models) != 1 || models[0].Name != "a" {
		t.Errorf("Models = %v", models)
	}
}

func TestConcurrentLookupsDuringChurn(t *testing.T) {
	// Readers hammer Lookup while a writer swaps and re-registers; under
	// -race this checks the RCU discipline, and every resolved entry must
	// be internally consistent (model present, version positive).
	r := New()
	if _, err := r.Register("hot", labelModel(0), EncoderInfo{}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := []float64{1, 0, 0, 1}
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, err := r.Lookup("hot")
				if err != nil {
					continue // briefly deregistered
				}
				if e.Model == nil || e.Version < 1 {
					t.Error("inconsistent entry resolved")
					return
				}
				_ = e.Model.Scores(q)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%20 == 19 {
			if err := r.Deregister("hot"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Register("hot", labelModel(i%2), EncoderInfo{}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := r.Swap("hot", labelModel((i+1)%2), EncoderInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestModelsReturnsOneConsistentSnapshot(t *testing.T) {
	r := New()
	for i := 0; i < 5; i++ {
		if _, err := r.Register(fmt.Sprintf("m%d", i), labelModel(0), EncoderInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	models := r.Models()
	if len(models) != 5 || r.Len() != 5 {
		t.Fatalf("Models len %d, Len %d, want 5", len(models), r.Len())
	}
	for i := 1; i < len(models); i++ {
		if models[i-1].Name >= models[i].Name {
			t.Errorf("Models not sorted: %q before %q", models[i-1].Name, models[i].Name)
		}
	}
}

func TestSwapKeepsShardDescriptor(t *testing.T) {
	// A shard entry stays a shard across Swap: the descriptor carries over
	// to the new publication, and a model of another geometry is refused.
	r := New()
	shard := &ShardInfo{DimOffset: 4, DimLen: 4, ClassOffset: 0, ClassCount: 2, FullDim: 8, FullClasses: 2}
	if _, err := r.RegisterShard("m", labelModel(0), EncoderInfo{}, shard); err != nil {
		t.Fatal(err)
	}
	e, err := r.Swap("m", labelModel(1), EncoderInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Shard == nil || *e.Shard != *shard {
		t.Fatalf("swapped entry's descriptor = %v, want %v", e.Shard, shard)
	}
	if _, err := r.Swap("m", hdc.NewModel(2, 8), EncoderInfo{}); err == nil {
		t.Fatal("Swap published an 8-dimensional model over a 4-dimensional shard")
	}
	if got, _ := r.Lookup("m"); got != e {
		t.Errorf("a refused Swap changed the published entry")
	}
}
