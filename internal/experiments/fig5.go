package experiments

import (
	"fmt"

	"privehd/internal/quant"
)

// Fig5 reproduces the encoding-quantization trade-off of paper Fig. 5 on
// the speech workload: (a) accuracy vs dimension for bipolar / ternary /
// biased-ternary / 2-bit quantized training (class vectors stay
// full-precision sums of quantized encodings), with the full-precision
// baseline for reference; (b) the Eq. 14 ℓ2 sensitivity of each scheme vs
// dimension, against the Eq. 12 unquantized sensitivity.
func Fig5(r *Runner) ([]*Table, error) {
	set, err := r.Level("isolet-s")
	if err != nil {
		return nil, err
	}
	d := set.data

	acc := &Table{
		ID:    "fig5a",
		Title: "Accuracy vs dimension per encoding quantization (paper Fig. 5a)",
		Note: "Paper at D=10k: bipolar 93.1% vs full-precision baseline ~93.6% (0.25-0.5% gap); " +
			"2-bit at D=1k within ~3% of the full baseline. Shapes: accuracy rises with D; " +
			"quantized tracks the baseline closely at high D.",
		Columns: []string{"dims", "full", "bipolar", "ternary", "ternary-biased", "2bit"},
	}
	sens := &Table{
		ID:    "fig5b",
		Title: "ℓ2 sensitivity vs dimension per scheme (paper Fig. 5b, Eq. 14)",
		Note: "Exact analytic values. Paper at D=10k: bipolar 100, ternary ≈81.6, " +
			"biased ternary ≈70.7 (0.87× of ternary), 2-bit ≈122. Unquantized Eq. 12 for reference.",
		Columns: []string{"dims", "unquantized", "bipolar", "ternary", "ternary-biased", "2bit"},
	}

	schemes := quant.Schemes()
	// Pre-quantize at each dim (quantizers cut each vector at its own
	// order statistics, so they must run on the sliced encodings, not
	// slices of quantized MaxDim vectors).
	for _, dim := range r.ctx.Dims {
		trainDim := sliceDims(set.train, dim)
		testDim := sliceDims(set.test, dim)
		baseline, err := trainEval(trainDim, d.TrainY, testDim, d.TestY, d.Classes, dim)
		if err != nil {
			return nil, err
		}
		accRow := []string{fmt.Sprintf("%d", dim), pct(baseline)}
		sensRow := []string{fmt.Sprintf("%d", dim), f2(quant.RawL2Sensitivity(dim, d.Features))}
		for _, q := range schemes {
			qTrain := quant.QuantizeBatch(q, trainDim)
			qTest := quant.QuantizeBatch(q, testDim)
			a, err := trainEval(qTrain, d.TrainY, qTest, d.TestY, d.Classes, dim)
			if err != nil {
				return nil, err
			}
			accRow = append(accRow, pct(a))
			sensRow = append(sensRow, f2(quant.AnalyticL2Sensitivity(q, dim)))
		}
		acc.Rows = append(acc.Rows, accRow)
		sens.Rows = append(sens.Rows, sensRow)
	}
	return []*Table{acc, sens}, nil
}
