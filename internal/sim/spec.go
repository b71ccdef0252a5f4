package sim

import (
	"context"

	"ebm/internal/spec"
)

// FromSpec materializes a declarative run description into engine
// options, building the TLP manager through the scheme registry. The
// returned Options carry no observers or hooks — attach them afterwards
// for traced (uncacheable) runs.
func FromSpec(rs spec.RunSpec) (Options, error) {
	m, err := rs.Manager()
	if err != nil {
		return Options{}, err
	}
	return Options{
		Config:             rs.Config,
		Apps:               rs.Apps,
		CoresPerApp:        rs.CoresPerApp,
		Manager:            m,
		TotalCycles:        rs.TotalCycles,
		WarmupCycles:       rs.WarmupCycles,
		WindowCycles:       rs.WindowCycles,
		DesignatedSampling: rs.DesignatedSampling,
		VictimTags:         rs.VictimTags,
		L2WayPartition:     rs.L2WayPartition,
	}, nil
}

// Execute runs a declarative run description to completion: the
// replayable execution path behind simcache.RunCached. Cancellation is
// cooperative (checked at sampling-window boundaries); a cancelled run
// returns a zero Result with ctx.Err(), never a partial one, so the
// caching layers can never persist an interrupted measurement.
func Execute(ctx context.Context, rs spec.RunSpec) (Result, error) {
	o, err := FromSpec(rs)
	if err != nil {
		return Result{}, err
	}
	s, err := New(o)
	if err != nil {
		return Result{}, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}
