package experiments

import "fmt"

// Suite is the full set of regenerated artifacts.
type Suite struct {
	Tables []*Table
	// Art holds the ASCII image strips from Fig. 2 and Fig. 6.
	Art []string
}

// All runs every experiment in paper order and collects the results.
// Failures abort the run: a partial report would silently misrepresent
// coverage.
func All(r *Runner) (*Suite, error) {
	s := &Suite{}

	fig2, err := Fig2(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig2: %w", err)
	}
	s.Tables = append(s.Tables, fig2.Table)
	s.Art = append(s.Art, fig2.Art...)

	fig3, err := Fig3(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3: %w", err)
	}
	s.Tables = append(s.Tables, fig3...)

	fig4, err := Fig4(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4: %w", err)
	}
	s.Tables = append(s.Tables, fig4)

	fig5, err := Fig5(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	s.Tables = append(s.Tables, fig5...)

	fig6, err := Fig6(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig6: %w", err)
	}
	s.Tables = append(s.Tables, fig6.Table)
	s.Art = append(s.Art, fig6.Art...)

	fig8, err := Fig8(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig8: %w", err)
	}
	s.Tables = append(s.Tables, fig8...)

	fig9, err := Fig9(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig9: %w", err)
	}
	s.Tables = append(s.Tables, fig9...)

	eq15, err := Eq15(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: eq15: %w", err)
	}
	s.Tables = append(s.Tables, eq15)

	am, err := ApproxMajority(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: approx-majority: %w", err)
	}
	s.Tables = append(s.Tables, am)

	tI, err := TableI(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: tableI: %w", err)
	}
	s.Tables = append(s.Tables, tI)

	inv, err := ModelInversion(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: model-inversion: %w", err)
	}
	s.Tables = append(s.Tables, inv.Table)
	s.Art = append(s.Art, inv.Art...)

	abl, err := Ablations(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablations: %w", err)
	}
	s.Tables = append(s.Tables, abl...)

	s.Tables = append(s.Tables, Verify(s, r.ctx))
	return s, nil
}

// Find returns the table with the given ID, or nil.
func (s *Suite) Find(id string) *Table {
	for _, t := range s.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}
