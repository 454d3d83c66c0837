package privehd

import "privehd/internal/experiments"

// ExperimentContext scales the paper-artifact regeneration (dataset scale,
// dimension caps, sample counts).
type ExperimentContext = experiments.Context

// ExperimentTable is one regenerated table/figure with its ID, caption,
// rows and paper-expectation note.
type ExperimentTable = experiments.Table

// ExperimentSuite is the full set of regenerated paper artifacts: every
// table plus the ASCII reconstruction strips of Figs. 2 and 6.
type ExperimentSuite = experiments.Suite

// DefaultExperimentContext is the full-scale experiment configuration
// cmd/privehd-experiments runs without -smoke.
func DefaultExperimentContext() ExperimentContext { return experiments.DefaultContext() }

// SmokeExperimentContext is a fast small-scale configuration for CI and
// demos.
func SmokeExperimentContext() ExperimentContext { return experiments.SmokeContext() }

// RunExperiments regenerates every table and figure of the Prive-HD
// evaluation under the given context.
func RunExperiments(ctx ExperimentContext) (*ExperimentSuite, error) {
	r, err := experiments.NewRunner(ctx)
	if err != nil {
		return nil, err
	}
	return experiments.All(r)
}
