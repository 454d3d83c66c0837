package privehd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
)

// TestLoadRefusesGeometryBeyondEngine re-encodes a real saved pipeline
// with a geometry the encoding engine cannot encode. Load must refuse it
// as a corrupt model whose message names the limit.
func TestLoadRefusesGeometryBeyondEngine(t *testing.T) {
	var saved bytes.Buffer
	if err := trainWide(t, 64).Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(w *pipelineWire)
	}{
		{"levels", func(w *pipelineWire) { w.Levels = 1<<16 + 1 }},
		{"scalar-features", func(w *pipelineWire) {
			w.Encoding = int(Scalar)
			w.Features = 1<<16 + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w pipelineWire
			if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&w); err != nil {
				t.Fatal(err)
			}
			tc.edit(&w)
			var blob bytes.Buffer
			if err := gob.NewEncoder(&blob).Encode(w); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&blob)
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("Load: err = %v, want ErrCorruptModel", err)
			}
			if !strings.Contains(err.Error(), "65536") {
				t.Fatalf("Load: error %q does not name the limit 65536", err)
			}
		})
	}
}

// TestLoadRefusesClassMismatch re-encodes a real saved pipeline with a
// class count its model does not have. Load must refuse it as a corrupt
// model rather than report a label space the model cannot score.
func TestLoadRefusesClassMismatch(t *testing.T) {
	var saved bytes.Buffer
	if err := trainWide(t, 64).Save(&saved); err != nil {
		t.Fatal(err)
	}
	var w pipelineWire
	if err := gob.NewDecoder(&saved).Decode(&w); err != nil {
		t.Fatal(err)
	}
	w.Classes = 3 // the model has 2
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(w); err != nil {
		t.Fatal(err)
	}
	if p, err := Load(&blob); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("Load: err = %v, want ErrCorruptModel (pipeline %v)", err, p)
	}
}
