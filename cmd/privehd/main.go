// Command privehd is the Prive-HD command line: train differentially
// private HD models on the standard workloads, demonstrate the
// reconstruction attack, and inspect privacy reports. It is built entirely
// on the public privehd package.
//
// Usage:
//
//	privehd train  [-dataset isolet-s] [-dim 10000] [-quant ternary-biased]
//	               [-keep 0] [-epochs 2] [-eps 0] [-delta 1e-5] [-out model.gob]
//	privehd attack [-dataset mnist-s] [-dim 10000] [-quantize] [-mask 0]
//	privehd report [-dataset isolet-s] [-dim 10000] [-quant ternary-biased]
//	               [-keep 1000] [-eps 1] [-delta 1e-5]
//	privehd infer  [-addr 127.0.0.1:7311] [-dataset isolet-s] [-quantize] [-mask 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"privehd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = runTrain(os.Args[2:])
	case "attack":
		err = runAttack(os.Args[2:])
	case "report":
		err = runReport(os.Args[2:])
	case "infer":
		err = runInfer(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "privehd: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privehd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `privehd — privacy-preserved hyperdimensional computing

commands:
  train    train a (optionally differentially private) HD model and report accuracy
  attack   reconstruct inputs from encoded queries (the paper's privacy breach demo)
  report   print the privacy calibration (sensitivity, sigma, noise) without training
  infer    classify test inputs against a privehd-serve instance over TCP

run 'privehd <command> -h' for flags.`)
}

// commonFlags adds the flags shared by subcommands.
type commonFlags struct {
	dataset string
	dim     int
	levels  int
	seed    uint64
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.dataset, "dataset", "isolet-s",
		"workload: "+strings.Join(privehd.DatasetNames(), ", "))
	fs.IntVar(&c.dim, "dim", 10000, "hypervector dimensionality D_hv")
	fs.IntVar(&c.levels, "levels", 100, "feature quantization levels ℓ_iv")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	return c
}

// addEncoding registers the -encoding flag; the default differs per
// subcommand (the attack analysis is written against the scalar form).
func addEncoding(fs *flag.FlagSet, def string) *string {
	return fs.String("encoding", def, "paper encoding: level (Eq. 2b) or scalar (Eq. 2a); edge and server must match")
}

func parseEncoding(name string) (privehd.Encoding, error) {
	switch name {
	case "level":
		return privehd.Level, nil
	case "scalar":
		return privehd.Scalar, nil
	}
	return 0, fmt.Errorf("unknown encoding %q (valid: level, scalar)", name)
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	c := addCommon(fs)
	quantName := fs.String("quant", "ternary-biased", "encoding quantization: full, bipolar, ternary, ternary-biased, 2bit")
	keep := fs.Int("keep", 0, "prune the model to this many dimensions (0 = no pruning)")
	epochs := fs.Int("epochs", 2, "retraining epochs")
	eps := fs.Float64("eps", 0, "differential privacy ε (0 = non-private)")
	delta := fs.Float64("delta", 1e-5, "differential privacy δ")
	out := fs.String("out", "", "write the trained pipeline (gob) to this path")
	small := fs.Bool("small", false, "use the small dataset scale (quick demo)")
	encName := addEncoding(fs, "level")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := privehd.LoadDataset(c.dataset, *small)
	if err != nil {
		return err
	}
	enc, err := parseEncoding(*encName)
	if err != nil {
		return err
	}
	pipe, err := privehd.New(
		privehd.WithDim(c.dim),
		privehd.WithLevels(c.levels),
		privehd.WithSeed(c.seed),
		privehd.WithEncoding(enc),
		privehd.WithQuantizer(*quantName),
		privehd.WithPruning(*keep),
		privehd.WithRetrain(*epochs),
		privehd.WithNoise(*eps, *delta),
	)
	if err != nil {
		return err
	}

	start := time.Now()
	if err := pipe.Train(d.TrainX, d.TrainY); err != nil {
		return err
	}
	trainTime := time.Since(start)
	acc, err := pipe.Evaluate(d.TestX, d.TestY)
	if err != nil {
		return err
	}

	r := pipe.Report()
	fmt.Printf("dataset      %s (%d train / %d test, %d features, %d classes)\n",
		d.Name, len(d.TrainX), len(d.TestX), d.Features, d.Classes)
	fmt.Printf("model        D=%d kept=%d quant=%s encoding=%s epochs=%d\n",
		r.Dim, r.KeptDims, r.Quantizer, pipe.Encoding(), *epochs)
	if r.Private {
		fmt.Printf("privacy      (ε=%g, δ=%g)  ∆f=%.2f  σ=%.2f  noise std=%.2f\n",
			r.Epsilon, r.Delta, r.Sensitivity, r.SigmaFactor, r.NoiseStd)
	} else {
		fmt.Printf("privacy      none (non-private baseline)\n")
	}
	fmt.Printf("accuracy     %.2f%%\n", 100*acc)
	fmt.Printf("train time   %v\n", trainTime.Round(time.Millisecond))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pipe.Save(f); err != nil {
			return err
		}
		fmt.Printf("pipeline saved  %s\n", *out)
	}
	return nil
}

func runAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	c := addCommon(fs)
	quantize := fs.Bool("quantize", false, "apply the §III-C 1-bit defence to the query")
	mask := fs.Int("mask", 0, "mask this many query dimensions (defence strength)")
	samples := fs.Int("samples", 3, "how many test inputs to attack")
	encName := addEncoding(fs, "scalar")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := privehd.LoadDataset(c.dataset, true)
	if err != nil {
		return err
	}
	enc, err := parseEncoding(*encName)
	if err != nil {
		return err
	}
	edgeOpts := []privehd.Option{
		privehd.WithDim(c.dim),
		privehd.WithLevels(c.levels),
		privehd.WithSeed(c.seed),
		privehd.WithFeatures(d.Features),
		privehd.WithEncoding(enc),
		privehd.WithQueryMask(*mask),
	}
	if !*quantize {
		edgeOpts = append(edgeOpts, privehd.WithRawQueries())
	}
	edge, err := privehd.NewEdge(edgeOpts...)
	if err != nil {
		return err
	}

	n := *samples
	if n > len(d.TestX) {
		n = len(d.TestX)
	}
	for i := 0; i < n; i++ {
		x := d.TestX[i]
		truth := edge.QuantizeTruth(x)
		query, err := edge.Prepare(x)
		if err != nil {
			return err
		}
		recon, err := edge.Reconstruct(query)
		if err != nil {
			return err
		}
		m := privehd.MeasureReconstruction(truth, recon)
		fmt.Printf("sample %d (label %d): MSE %.4f, PSNR %.1f dB\n", i, d.TestY[i], m.MSE, m.PSNR)
		if d.ImageWidth > 0 {
			orig := privehd.RenderASCII(truth, d.ImageWidth)
			rec := privehd.RenderASCII(recon, d.ImageWidth)
			fmt.Println(privehd.SideBySide(orig, rec, " | "))
		}
	}
	return nil
}

func runInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	c := addCommon(fs)
	addr := fs.String("addr", "127.0.0.1:7311", "privehd-serve address")
	quantize := fs.Bool("quantize", true, "1-bit quantize queries before offloading (§III-C)")
	mask := fs.Int("mask", 0, "mask this many query dimensions before offloading")
	samples := fs.Int("samples", 50, "how many test inputs to classify")
	timeout := fs.Duration("timeout", 10*time.Second, "dial/handshake timeout")
	// Scalar default: 1-bit offloaded queries against a full-precision
	// model (the plain privehd-serve pairing) need the Eq. 2a form; when
	// serving a level-encoded pipeline (-model), pass -encoding level to
	// match — the server banner says which.
	encName := addEncoding(fs, "scalar")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := privehd.LoadDataset(c.dataset, true)
	if err != nil {
		return err
	}
	enc, err := parseEncoding(*encName)
	if err != nil {
		return err
	}
	edgeOpts := []privehd.Option{
		privehd.WithDim(c.dim),
		privehd.WithLevels(c.levels),
		privehd.WithSeed(c.seed),
		privehd.WithFeatures(d.Features),
		privehd.WithEncoding(enc),
		privehd.WithQueryMask(*mask),
	}
	if !*quantize {
		edgeOpts = append(edgeOpts, privehd.WithRawQueries())
	}
	edge, err := privehd.NewEdge(edgeOpts...)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client, err := privehd.Connect(ctx, privehd.Target{
		Addrs:    []string{*addr},
		Topology: privehd.TopologySingle,
	}, privehd.WithEdge(edge))
	if err != nil {
		return err
	}
	defer client.Close()

	n := *samples
	if n > len(d.TestX) {
		n = len(d.TestX)
	}
	start := time.Now()
	labels, err := client.PredictBatch(d.TestX[:n])
	if err != nil {
		return err
	}
	correct := 0
	for i, label := range labels {
		if label == d.TestY[i] {
			correct++
		}
	}
	fmt.Printf("classified %d queries in %v: %.1f%% correct (quantize=%v, mask=%d, D=%d)\n",
		n, time.Since(start).Round(time.Millisecond),
		100*float64(correct)/float64(n), *quantize, *mask, edge.Dim())
	return nil
}

func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	c := addCommon(fs)
	quantName := fs.String("quant", "ternary-biased", "encoding quantization scheme")
	keep := fs.Int("keep", 0, "effective dimensions after pruning (0 = all)")
	eps := fs.Float64("eps", 1, "differential privacy ε")
	delta := fs.Float64("delta", 1e-5, "differential privacy δ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := privehd.LoadDataset(c.dataset, true)
	if err != nil {
		return err
	}
	pipe, err := privehd.New(
		privehd.WithDim(c.dim),
		privehd.WithLevels(c.levels),
		privehd.WithFeatures(d.Features),
		privehd.WithQuantizer(*quantName),
		privehd.WithPruning(*keep),
		privehd.WithNoise(*eps, *delta),
	)
	if err != nil {
		return err
	}
	cal, err := pipe.Calibration()
	if err != nil {
		return err
	}
	fmt.Printf("dataset        %s (%d features)\n", d.Name, d.Features)
	fmt.Printf("geometry       D=%d, kept=%d, quant=%s\n", cal.Dim, cal.KeptDims, cal.Quantizer)
	fmt.Printf("sensitivity    ∆f = %.2f", cal.Sensitivity)
	if cal.Quantizer == "full" {
		fmt.Printf("  (Eq. 12, unquantized)\n")
	} else {
		fmt.Printf("  (Eq. 14)\n")
	}
	fmt.Printf("budget         (ε=%g, δ=%g)\n", cal.Epsilon, cal.Delta)
	fmt.Printf("noise          σ=%.3f, per-dimension std = ∆f·σ = %.2f\n", cal.SigmaFactor, cal.NoiseStd)
	fmt.Printf("vs unquantized ∆f would be %.0f at full dimension — %.0f× more noise\n",
		cal.RawSensitivity, cal.RawSensitivity/cal.Sensitivity)
	return nil
}
