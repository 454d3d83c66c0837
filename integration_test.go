package privehd_test

import (
	"bytes"
	"context"
	"math"
	"net"
	"testing"
	"time"

	"privehd"

	"privehd/internal/attack"
	"privehd/internal/hdc"
	"privehd/internal/vecmath"
)

// TestFullLifecycle walks the complete Prive-HD story across module
// boundaries, entirely through the public API: private training → pipeline
// serialization → cloud serving → obfuscated edge inference → eavesdropper
// attack → membership attack on the released model. Everything a
// deployment would actually do.
func TestFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	data, err := privehd.LoadDataset("face-s", true)
	if err != nil {
		t.Fatal(err)
	}
	// Both releases share the encoder seed (base hypervectors are public
	// setup); only the noise stream varies between them.
	opts := func(noiseSeed uint64) []privehd.Option {
		return []privehd.Option{
			privehd.WithDim(4000),
			privehd.WithLevels(20),
			privehd.WithSeed(77),
			privehd.WithNoiseSeed(noiseSeed),
			privehd.WithQuantizer("ternary-biased"),
			privehd.WithPruning(2000),
			privehd.WithRetrain(2),
			privehd.WithNoise(8, 1e-5),
		}
	}

	// --- 1. Differentially private training. ----------------------------
	pipeline, err := privehd.New(opts(78)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.Train(data.TrainX, data.TrainY); err != nil {
		t.Fatal(err)
	}
	report := pipeline.Report()
	if !report.Private || report.KeptDims != 2000 {
		t.Fatalf("unexpected report: %+v", report)
	}
	privateAcc, err := pipeline.Evaluate(data.TestX, data.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if privateAcc < 0.6 {
		t.Errorf("private accuracy = %v, want ≥ 0.6 at ε=8 on an easy binary task", privateAcc)
	}

	// --- 2. The pipeline round-trips through serialization. --------------
	var buf bytes.Buffer
	if err := pipeline.Save(&buf); err != nil {
		t.Fatal(err)
	}
	served, err := privehd.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if served.Dim() != pipeline.Dim() || served.Classes() != pipeline.Classes() {
		t.Fatalf("loaded geometry %d/%d, want %d/%d",
			served.Dim(), served.Classes(), pipeline.Dim(), pipeline.Classes())
	}

	// --- 3. Serve the released pipeline behind a wiretapped listener;
	//        classify through an obfuscating edge over real TCP. ----------
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tapped, tap := privehd.Tap(lis)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- privehd.Serve(ctx, tapped, served) }()

	edge, err := served.Edge(privehd.WithQueryMask(500))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := dialEdge(lis.Addr().String(), "", edge)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	n := 20
	if n > len(data.TestX) {
		n = len(data.TestX)
	}
	// The served model was trained on masked biased-ternary encodings; the
	// edge sends bipolar+masked queries. Cross-scheme inference is the
	// paper's §III-C setting (degraded query, information-rich classes).
	labels, err := remote.PredictBatch(data.TestX[:n])
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, label := range labels {
		if label == data.TestY[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.55 {
		t.Errorf("served accuracy = %v over %d queries", acc, n)
	}

	// --- 4. The wiretap sees only obfuscated vectors. --------------------
	deadline := time.After(2 * time.Second)
	for len(tap.Queries()) < n {
		select {
		case <-deadline:
			t.Fatalf("tap saw %d/%d queries", len(tap.Queries()), n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, q := range tap.Queries() {
		zeros := 0
		for _, v := range q {
			switch v {
			case 0:
				zeros++
			case 1, -1:
			default:
				t.Fatalf("wiretap saw unquantized value %v", v)
			}
		}
		if zeros < 500 {
			t.Fatalf("wiretap query has %d zeros, want ≥ mask size", zeros)
		}
	}

	// The serving side answered every query and shuts down cleanly.
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Error("Serve did not stop after context cancellation")
	}

	// --- 5. Membership attack on the DP release is blunted. --------------
	// Train the same pipeline minus one record; the class-difference of the
	// two *privatized* releases should no longer resemble the missing
	// record's encoding (clean models leak it near-exactly; see the attack
	// package tests for the undefended contrast). The attack itself stays
	// an internal tool — it is the adversary, not the product surface.
	smaller := data.Subset(0.95)
	pipeline2, err := privehd.New(opts(80)...) // fresh noise, as two releases would have
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline2.Train(smaller.TrainX, smaller.TrainY); err != nil {
		t.Fatal(err)
	}
	m1, m2 := releasedModel(t, pipeline), releasedModel(t, pipeline2)
	diff, _, err := attack.ModelDifference(m2, m1)
	if err != nil {
		t.Fatal(err)
	}
	// The difference is dominated by the two independent noise draws: its
	// per-dimension rms must be at least a single release's calibrated
	// noise std, i.e. the record is buried.
	noiseFloor := report.NoiseStd
	rms := vecmath.Norm2(diff) / math.Sqrt(float64(len(diff)))
	if rms < noiseFloor {
		t.Errorf("model-difference rms %v below a single release's noise std %v — record insufficiently buried",
			rms, noiseFloor)
	}
}

// releasedModel reassembles the published class hypervectors into a model
// the membership adversary can attack — the adversary sees exactly what
// ClassVectors releases.
func releasedModel(t *testing.T, p *privehd.Pipeline) *hdc.Model {
	t.Helper()
	classes, err := p.ClassVectors()
	if err != nil {
		t.Fatal(err)
	}
	m := hdc.NewModel(len(classes), p.Dim())
	for l, c := range classes {
		m.Add(l, c)
	}
	return m
}
