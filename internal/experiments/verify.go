package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"privehd/internal/dataset"
)

// Verify mechanically checks the reproduction's shape targets — the
// qualitative claims of the paper's figures and tables (PAPER.md) — against
// a generated suite and returns a pass/fail table. It is the self-audit
// appended to the experiment report: every claim the README makes about
// "shapes holding" is asserted here rather than eyeballed.
//
// Accuracy-dependent checks need full-scale statistics; at smoke scale they
// report "skipped" instead of a misleading fail.
func Verify(s *Suite, ctx Context) *Table {
	t := &Table{
		ID:      "repro-checks",
		Title:   "Reproduction assertions (automated)",
		Note:    "Mechanical checks of the paper's shape targets against the tables above.",
		Columns: []string{"check", "status", "detail"},
	}
	fullScale := ctx.Scale == dataset.Full
	add := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		t.Rows = append(t.Rows, []string{name, status, detail})
	}
	skip := func(name, why string) {
		t.Rows = append(t.Rows, []string{name, "skipped", why})
	}

	// --- Analytic checks: hold at any scale. -----------------------------
	if tab := s.Find("fig5b"); tab != nil {
		last := tab.Rows[len(tab.Rows)-1]
		want := math.Sqrt(float64(ctx.MaxDim))
		got := cellFloat(last[2])
		add("fig5b: bipolar ∆f = √D exactly", math.Abs(got-want) < 0.01,
			fmt.Sprintf("%.2f vs √%d = %.2f", got, ctx.MaxDim, want))
		bt, tn := cellFloat(last[4]), cellFloat(last[3])
		ratio := bt / tn
		add("fig5b: biased/uniform ternary ratio ≈ 0.87", math.Abs(ratio-0.866) < 0.005,
			fmt.Sprintf("ratio %.3f", ratio))
	}
	if tab := s.Find("eq15"); tab != nil {
		ok := true
		var worst float64
		for _, row := range tab.Rows {
			v := cellFloat(strings.TrimSuffix(row[5], "%")) / 100
			if v < 0.6 || v > 0.85 {
				ok = false
			}
			worst = v
		}
		add("eq15: measured LUT saving ≈ 70.8%", ok, fmt.Sprintf("last %.1f%%", 100*worst))
	}
	if tab := s.Find("tableI"); tab != nil {
		var gmPi, gmGPU float64
		for _, row := range tab.Rows {
			if row[0] == "geomean" && row[1] == "FPGA / Pi" {
				gmPi = cellFloat(row[2])
			}
			if row[0] == "geomean" && row[1] == "FPGA / GPU" {
				gmGPU = cellFloat(row[2])
			}
		}
		add("tableI: FPGA/Pi geomean ~1e5 (paper 105067)", gmPi > 3e4 && gmPi < 4e5,
			fmt.Sprintf("%.3g", gmPi))
		add("tableI: FPGA/GPU geomean ~16 (paper 15.8)", gmGPU > 4 && gmGPU < 64,
			fmt.Sprintf("%.3g", gmGPU))
	}
	if tab := s.Find("fig3a"); tab != nil {
		mid := cellFloat(tab.Rows[len(tab.Rows)/2][1])
		add("fig3a: half the dims restore <50% of the information", mid < 0.5,
			fmt.Sprintf("mid retention %.2f", mid))
	}

	// --- Accuracy checks: meaningful only at full scale. -----------------
	accuracyChecks := []struct {
		name string
		run  func() (bool, string)
	}{
		{"fig5a: quantized within 5pp of full precision at max D", func() (bool, string) {
			tab := s.Find("fig5a")
			last := tab.Rows[len(tab.Rows)-1]
			full := cellPct(last[1])
			worstGap := 0.0
			for c := 2; c < len(last); c++ {
				if gap := full - cellPct(last[c]); gap > worstGap {
					worstGap = gap
				}
			}
			return worstGap < 0.05, fmt.Sprintf("worst gap %.1fpp", 100*worstGap)
		}},
		{"fig6: masking degrades PSNR monotonically, accuracy gently", func() (bool, string) {
			tab := s.Find("fig6")
			psnrOK := true
			for i := 1; i < len(tab.Rows); i++ {
				if cellFloat(tab.Rows[i][2]) > cellFloat(tab.Rows[i-1][2])+0.01 {
					psnrOK = false
				}
			}
			accDrop := cellPct(tab.Rows[0][1]) - cellPct(tab.Rows[2][1])
			return psnrOK && accDrop < 0.05,
				fmt.Sprintf("PSNR monotone=%v, acc drop to 5k mask %.1fpp", psnrOK, 100*accDrop)
		}},
		{"fig8: single-digit ε within 15pp of non-private at best D", func() (bool, string) {
			worst := 0.0
			for _, id := range []string{"fig8a", "fig8b", "fig8c"} {
				tab := s.Find(id)
				bestGap := math.Inf(1)
				for _, row := range tab.Rows {
					clean := cellPct(row[1])
					loosest := cellPct(row[len(row)-1])
					if gap := clean - loosest; gap < bestGap {
						bestGap = gap
					}
				}
				if bestGap > worst {
					worst = bestGap
				}
			}
			return worst < 0.15, fmt.Sprintf("worst best-D gap %.1fpp", 100*worst)
		}},
		{"fig8d: DP accuracy increases with data size", func() (bool, string) {
			tab := s.Find("fig8d")
			first := cellPct(tab.Rows[0][1])
			last := cellPct(tab.Rows[len(tab.Rows)-1][1])
			return last > first, fmt.Sprintf("%.1f%% → %.1f%%", 100*first, 100*last)
		}},
		{"fig9b: masked reconstruction MSE ≥ 2× clean on every dataset", func() (bool, string) {
			tab := s.Find("fig9b")
			last := tab.Rows[len(tab.Rows)-1]
			min := math.Inf(1)
			for c := 1; c < len(last); c++ {
				if v := cellFloat(last[c]); v < min {
					min = v
				}
			}
			return min >= 2, fmt.Sprintf("min final ratio %.2f×", min)
		}},
		{"approx-majority: accuracy delta ≤ 1.5pp (paper <1%)", func() (bool, string) {
			tab := s.Find("approx-majority")
			delta := math.Abs(cellPct(tab.Rows[2][1]))
			return delta <= 0.015, fmt.Sprintf("delta %.2fpp", 100*delta)
		}},
		{"model-inversion: prototypes (aggregates) survive record-level DP", func() (bool, string) {
			tab := s.Find("model-inversion")
			clean := cellFloat(tab.Rows[0][1])
			private := cellFloat(tab.Rows[len(tab.Rows)-1][1])
			return math.Abs(clean-private) < 3, fmt.Sprintf("%.1f dB vs %.1f dB", clean, private)
		}},
	}
	for _, c := range accuracyChecks {
		if !fullScale {
			skip(c.name, "needs full-scale statistics")
			continue
		}
		ok, detail := c.run()
		add(c.name, ok, detail)
	}
	return t
}

// Passed reports whether every non-skipped assertion in a repro-checks
// table passed.
func Passed(t *Table) bool {
	for _, row := range t.Rows {
		if row[1] == "FAIL" {
			return false
		}
	}
	return true
}

func cellFloat(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

func cellPct(s string) float64 {
	return cellFloat(strings.TrimSuffix(strings.TrimSpace(s), "%")) / 100
}
