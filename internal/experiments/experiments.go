// Package experiments regenerates every table and figure of the Prive-HD
// evaluation (All lists them in paper order). Each Fig*/Table* function
// returns one or more Tables of the same rows/series the paper reports;
// cmd/privehd-experiments renders them into a markdown report.
//
// Determinism: every experiment is seeded; two runs with the same Context
// produce identical tables.
package experiments

import (
	"fmt"
	"strings"

	"privehd/internal/dataset"
	"privehd/internal/hdc"
)

// Context scopes an experiment run.
type Context struct {
	// Scale selects dataset sizes (dataset.Small for smoke tests and
	// benchmarks, dataset.Full for the full report).
	Scale dataset.Scale
	// MaxDim is the largest hypervector dimensionality (the paper's 10^4;
	// smoke tests shrink it). Sweeps slice prefixes of MaxDim encodings,
	// which is statistically equivalent to re-encoding at the smaller
	// dimension because base hypervectors are i.i.d. per coordinate.
	MaxDim int
	// Dims are the sweep points (ascending, each ≤ MaxDim).
	Dims []int
	// Levels is ℓ_iv for the level encoders (the paper's L100 default).
	Levels int
	// Workers caps encoding parallelism; 0 = GOMAXPROCS.
	Workers int
	// Seed drives every random choice in the run.
	Seed uint64
}

// DefaultContext returns the full-scale configuration used to produce the
// full report.
func DefaultContext() Context {
	return Context{
		Scale:  dataset.Full,
		MaxDim: 10000,
		Dims:   []int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000},
		Levels: 100,
		Seed:   0x9D,
	}
}

// SmokeContext returns a reduced configuration for tests and benchmarks.
func SmokeContext() Context {
	return Context{
		Scale:  dataset.Small,
		MaxDim: 2000,
		Dims:   []int{500, 1000, 2000},
		Levels: 20,
		Seed:   0x9D,
	}
}

// Validate reports whether the context is runnable.
func (c Context) Validate() error {
	if c.MaxDim <= 0 {
		return fmt.Errorf("experiments: MaxDim must be positive")
	}
	if len(c.Dims) == 0 {
		return fmt.Errorf("experiments: Dims must be non-empty")
	}
	prev := 0
	for _, d := range c.Dims {
		if d <= prev || d > c.MaxDim {
			return fmt.Errorf("experiments: Dims must be ascending and ≤ MaxDim, got %v", c.Dims)
		}
		prev = d
	}
	if c.Levels < 2 {
		return fmt.Errorf("experiments: Levels must be ≥ 2")
	}
	return nil
}

// Table is a rendered experiment result.
type Table struct {
	// ID matches the paper artifact ("fig5a", "tableI", ...).
	ID string
	// Title describes the table.
	Title string
	// Note carries per-run context (paper expectation, substitutions).
	Note string
	// Columns are the header names.
	Columns []string
	// Rows are formatted cells.
	Rows [][]string
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (cells never contain quotes in
// this package).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ",") + "\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

// sliceDims returns prefix views of each encoding at the given dimension.
func sliceDims(encoded [][]float64, dim int) [][]float64 {
	out := make([][]float64, len(encoded))
	for i, h := range encoded {
		out[i] = h[:dim:dim]
	}
	return out
}

// pct formats a fraction as a percentage with one decimal.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// f2 formats a float with up to two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// sci formats in compact scientific notation.
func sci(x float64) string { return fmt.Sprintf("%.3g", x) }

// trainEval trains a one-shot model on (possibly quantized) encodings and
// returns test accuracy.
func trainEval(trainEnc [][]float64, trainY []int, testEnc [][]float64, testY []int, classes, dim int) (float64, error) {
	m, err := hdc.Train(trainEnc, trainY, classes, dim)
	if err != nil {
		return 0, err
	}
	return hdc.Evaluate(m, testEnc, testY), nil
}
