package experiments

import (
	"fmt"

	"privehd/internal/fpga"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/netlist"
)

// Eq15 tabulates the LUT cost model of paper Eq. 15 against measured
// structural netlist counts: approximate (first-stage majority) vs exact
// adder-tree bipolar reduction, plus the ternary estimates.
func Eq15(r *Runner) (*Table, error) {
	t := &Table{
		ID:    "eq15",
		Title: "LUT-6 budget: Eq. 15 model vs synthesized netlist",
		Note: "Paper: approximate ≈ 7/18·d_iv vs exact 4/3·d_iv (70.8% saving); " +
			"ternary ≈ 2·d_iv vs 3·d_iv (33.3%). Netlist columns are measured from the " +
			"structural circuits in internal/netlist.",
		Columns: []string{"d_iv", "Eq15 approx", "Eq15 exact", "netlist approx", "netlist exact", "measured saving"},
	}
	for _, div := range []int{120, 360, 617, 784} {
		nlApprox, _ := netlist.BuildBipolarApprox(div, hrand.New(r.ctx.Seed+uint64(div)))
		nlExact := netlist.BuildBipolarExact(div, true)
		saving := 1 - float64(nlApprox.NumLUTs())/float64(nlExact.NumLUTs())
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", div),
			fmt.Sprintf("%.0f", fpga.BipolarApproxLUTs(div)),
			fmt.Sprintf("%.0f", fpga.BipolarExactLUTs(div)),
			fmt.Sprintf("%d", nlApprox.NumLUTs()),
			fmt.Sprintf("%d", nlExact.NumLUTs()),
			pct(saving),
		})
	}
	return t, nil
}

// ApproxMajority measures the §III-D claim that replacing the first
// reduction stage with LUT-6 majorities costs under ~1% accuracy: queries
// are hardware-quantized by the approximate circuit vs the exact popcount,
// against the same full-precision model.
func ApproxMajority(r *Runner) (*Table, error) {
	set, err := r.Level("isolet-s")
	if err != nil {
		return nil, err
	}
	d := set.data
	enc := set.levelEncoder()
	dim := r.ctx.MaxDim
	model, err := hdc.Train(set.train, d.TrainY, d.Classes, dim)
	if err != nil {
		return nil, err
	}
	circuit := fpga.NewBipolarCircuit(d.Features, hrand.New(r.ctx.Seed+7))

	// Limit the gate-level simulation to a manageable query count.
	n := len(d.TestX)
	if n > 64 {
		n = 64
	}
	exactCorrect, approxCorrect, flips := 0, 0, 0
	for i := 0; i < n; i++ {
		planes := enc.BitPlanes(d.TestX[i])
		exactQ := fpga.ExactQuantizeEncoding(planes, true)
		approxQ := circuit.QuantizeEncoding(planes)
		for j := range exactQ {
			if exactQ[j] != approxQ[j] {
				flips++
			}
		}
		if model.Predict(exactQ) == d.TestY[i] {
			exactCorrect++
		}
		if model.Predict(approxQ) == d.TestY[i] {
			approxCorrect++
		}
	}
	exactAcc := float64(exactCorrect) / float64(n)
	approxAcc := float64(approxCorrect) / float64(n)
	flipRate := float64(flips) / float64(n*dim)
	t := &Table{
		ID:    "approx-majority",
		Title: "Accuracy impact of the LUT-6 partial-majority approximation (§III-D)",
		Note: "Paper: \"in practice it imposes <1% accuracy loss due to inherent error " +
			"tolerance of HD\". Quantized queries against a full-precision model.",
		Columns: []string{"quantizer circuit", "accuracy", "bit flips vs exact"},
	}
	t.Rows = append(t.Rows,
		[]string{"exact popcount majority", pct(exactAcc), "0.0%"},
		[]string{"LUT-6 partial majority (Fig. 7a)", pct(approxAcc), pct(flipRate)},
		[]string{"accuracy delta", pct(exactAcc - approxAcc), ""},
	)
	return t, nil
}

// TableI regenerates the platform comparison of paper Table I from the
// analytical models in internal/fpga, side by side with the published
// values.
func TableI(r *Runner) (*Table, error) {
	t := &Table{
		ID:    "tableI",
		Title: "Throughput (inputs/s) and energy (J/input) across platforms (paper Table I)",
		Note: "Model columns come from the single-constant-set platform models in internal/fpga " +
			"(cost models, not measurements); paper columns are the published measurements. The claim under " +
			"test is the ratio structure: FPGA ≈ 1e5× Pi and ~16× GPU throughput, ~5e4× and " +
			"~290× energy.",
		Columns: []string{"workload", "platform", "model tput", "paper tput", "model J/input", "paper J/input"},
	}
	workloads := fpga.PaperWorkloads()
	paper := fpga.PaperResults()
	platforms := fpga.Platforms()
	for i, w := range workloads {
		for p, plat := range platforms {
			t.Rows = append(t.Rows, []string{
				w.Name,
				plat.Name,
				sci(plat.Throughput(w)),
				sci(paper[i].Throughput[p]),
				sci(plat.EnergyPerInput(w)),
				sci(paper[i].Energy[p]),
			})
		}
	}
	pi, gpu, f := fpga.RaspberryPi(), fpga.GPU(), fpga.PriveHDFPGA()
	t.Rows = append(t.Rows,
		[]string{"geomean", "FPGA / Pi", sci(fpga.GeomeanSpeedup(f, pi, workloads)), "105067", "", ""},
		[]string{"geomean", "FPGA / GPU", sci(fpga.GeomeanSpeedup(f, gpu, workloads)), "15.8", "", ""},
	)
	return t, nil
}
