// Package dataset provides the evaluation workloads of the Prive-HD
// reproduction.
//
// The paper evaluates on ISOLET (UCI speech, 617 features, 26 classes),
// MNIST (28×28 handwritten digits, 10 classes) and the Caltech web-faces
// dataset (FACE, 608 extracted features, binary). None of those corpora can
// ship with an offline, stdlib-only reproduction, so this package generates
// synthetic stand-ins with the same geometry (feature count, class count,
// value range) and calibrated difficulty. Results on them are compared
// with the paper by shape, not absolute value (README "Experiments and
// benchmarks"):
//
//   - ISOLET-S and FACE-S are Gaussian prototype mixtures over [0,1]
//     features — matching how the real sets behave as HD workloads (dense
//     extracted features, moderate class overlap).
//   - MNIST-S renders procedural 28×28 digit glyphs with jitter and noise,
//     so the reconstruction experiments (paper Figs. 2 and 6) produce
//     images a human can judge.
//
// Every generator is deterministic in its seed.
package dataset

import (
	"fmt"

	"privehd/internal/hrand"
)

// Dataset is a self-contained train/test classification task with
// normalized features in [0,1].
type Dataset struct {
	// Name identifies the workload in reports ("isolet-s", ...).
	Name string
	// Features is the input dimensionality D_iv.
	Features int
	// Classes is the number of labels.
	Classes int
	// TrainX/TrainY are the training samples and labels.
	TrainX [][]float64
	TrainY []int
	// TestX/TestY are the held-out evaluation samples and labels.
	TestX [][]float64
	TestY []int
	// ImageWidth is the row width when samples are renderable images
	// (MNIST-S: 28); 0 for non-visual feature sets.
	ImageWidth int
}

// Validate checks internal consistency of the dataset.
func (d *Dataset) Validate() error {
	if d.Features <= 0 || d.Classes <= 0 {
		return fmt.Errorf("dataset %s: bad geometry (%d features, %d classes)", d.Name, d.Features, d.Classes)
	}
	if len(d.TrainX) != len(d.TrainY) {
		return fmt.Errorf("dataset %s: %d train samples, %d labels", d.Name, len(d.TrainX), len(d.TrainY))
	}
	if len(d.TestX) != len(d.TestY) {
		return fmt.Errorf("dataset %s: %d test samples, %d labels", d.Name, len(d.TestX), len(d.TestY))
	}
	check := func(X [][]float64, y []int, split string) error {
		for i, x := range X {
			if len(x) != d.Features {
				return fmt.Errorf("dataset %s: %s sample %d has %d features, want %d",
					d.Name, split, i, len(x), d.Features)
			}
			if y[i] < 0 || y[i] >= d.Classes {
				return fmt.Errorf("dataset %s: %s label %d out of range", d.Name, split, i)
			}
		}
		return nil
	}
	if err := check(d.TrainX, d.TrainY, "train"); err != nil {
		return err
	}
	return check(d.TestX, d.TestY, "test")
}

// Subset returns a copy of d whose training split keeps only the first
// fraction of samples per class (the paper's Fig. 8d data-size sweep keeps
// class balance). The test split is shared, not copied. fraction clamps to
// [0,1]; at least one sample per represented class is retained when
// fraction > 0.
func (d *Dataset) Subset(fraction float64) *Dataset {
	if fraction >= 1 {
		return d
	}
	if fraction < 0 {
		fraction = 0
	}
	perClass := make(map[int]int)
	for _, y := range d.TrainY {
		perClass[y]++
	}
	budget := make(map[int]int, len(perClass))
	for c, n := range perClass {
		keep := int(fraction * float64(n))
		if keep == 0 && fraction > 0 {
			keep = 1
		}
		budget[c] = keep
	}
	out := &Dataset{
		Name:       fmt.Sprintf("%s[%.0f%%]", d.Name, fraction*100),
		Features:   d.Features,
		Classes:    d.Classes,
		TestX:      d.TestX,
		TestY:      d.TestY,
		ImageWidth: d.ImageWidth,
	}
	for i, x := range d.TrainX {
		c := d.TrainY[i]
		if budget[c] > 0 {
			budget[c]--
			out.TrainX = append(out.TrainX, x)
			out.TrainY = append(out.TrainY, c)
		}
	}
	return out
}

// Shuffled returns a copy of d with the training split reordered by the
// given source. Sample slices are shared, not copied.
func (d *Dataset) Shuffled(src *hrand.Source) *Dataset {
	out := &Dataset{
		Name:       d.Name,
		Features:   d.Features,
		Classes:    d.Classes,
		TrainX:     append([][]float64(nil), d.TrainX...),
		TrainY:     append([]int(nil), d.TrainY...),
		TestX:      d.TestX,
		TestY:      d.TestY,
		ImageWidth: d.ImageWidth,
	}
	src.Shuffle(len(out.TrainX), func(i, j int) {
		out.TrainX[i], out.TrainX[j] = out.TrainX[j], out.TrainX[i]
		out.TrainY[i], out.TrainY[j] = out.TrainY[j], out.TrainY[i]
	})
	return out
}

// ClassCounts returns the number of training samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.TrainY {
		counts[y]++
	}
	return counts
}
