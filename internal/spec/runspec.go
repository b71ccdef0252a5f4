package spec

import (
	"fmt"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/tlp"
)

// RunSpec is the full serializable description of one simulation:
// machine, applications, scheme, and run lengths. It is the request
// type commands and experiments hand to the executor, and the value the
// result cache fingerprints — everything that determines the outcome is
// here, and nothing that does not (observers and hooks cannot be
// expressed, so a cached run is replayable by construction). Values are
// recorded as requested, not as defaulted: callers relying on engine
// defaults key consistently among themselves.
type RunSpec struct {
	Config             config.GPU      `json:"config"`
	Apps               []kernel.Params `json:"apps"`
	CoresPerApp        []int           `json:"cores_per_app,omitempty"`
	Scheme             SchemeSpec      `json:"scheme"`
	TotalCycles        uint64          `json:"total_cycles"`
	WarmupCycles       uint64          `json:"warmup_cycles"`
	WindowCycles       uint64          `json:"window_cycles,omitempty"`
	DesignatedSampling bool            `json:"designated,omitempty"`
	VictimTags         int             `json:"victim_tags,omitempty"`
	L2WayPartition     [][]bool        `json:"l2_ways,omitempty"`
}

// Validate checks that the run describes something executable.
func (r RunSpec) Validate() error {
	if len(r.Apps) == 0 {
		return fmt.Errorf("spec: run has no applications")
	}
	return r.Scheme.Validate(len(r.Apps))
}

// Manager builds the run's TLP manager through the scheme registry.
func (r RunSpec) Manager() (tlp.Manager, error) {
	return r.Scheme.Manager(len(r.Apps))
}

// Canonical returns the run with its scheme rewritten to the canonical
// form (labels dropped, aliases collapsed, knobs explicit at their
// defaults): the value whose key walk (simcache.Key) is the run's cache
// identity.
// Two RunSpecs that would execute identically canonicalize equal.
func (r RunSpec) Canonical() RunSpec {
	r.Scheme = r.Scheme.canonical(len(r.Apps))
	return r
}

// PrefixCanonical returns the canonical run with TotalCycles cleared: the
// value whose key walk (ckpt.PrefixKey) identifies the run's
// deterministic prefix.
// Nothing in the engine reads TotalCycles except the cycle-loop bound, so
// two runs whose PrefixCanonical forms are equal execute bit-identically
// up to the shorter horizon — which is what makes a checkpoint written by
// one a valid fork point for the other. WarmupCycles stays in the key:
// the warmup accumulator snapshot is engine state a checkpoint carries.
func (r RunSpec) PrefixCanonical() RunSpec {
	r = r.Canonical()
	r.TotalCycles = 0
	return r
}
