// Package spec is the canonical, serializable description of what to
// simulate: a SchemeSpec names a TLP-management policy by kind plus its
// typed knobs, and a RunSpec adds the machine, the applications, and the
// run lengths. Every scheme the paper evaluates — static combinations,
// ++bestTLP, ++maxTLP, DynCTA, Mod+Bypass, CCWS, and PBS-WS/FI/HS — is
// registered here with a validated factory producing a tlp.Manager, so
// commands, experiments, and the result cache all construct policies
// from one description instead of thirty scattered switch arms.
//
// Specs round-trip two ways: JSON (the service-facing request encoding)
// and the compact flag-string grammar of ParseScheme/String
// ("static:2,8", "pbs-ws:drift=0.6,driftwin=4"). Normalization fills
// every knob with the defaults of the real constructors, so a spec that
// states a default explicitly and one that omits it are the same spec —
// the property internal/simcache's canonical cache keys build on.
package spec

import (
	"fmt"
	"slices"

	pbscore "ebm/internal/core"
	"ebm/internal/metrics"
	"ebm/internal/tlp"
)

// Scheme kinds, as written in flag strings and JSON. The names are
// constants for call-site convenience; the authoritative list is the
// registry (Kinds()), which out-of-tree kinds extend via Register.
const (
	KindStatic    = "static"
	KindBestTLP   = "besttlp"
	KindMaxTLP    = "maxtlp"
	KindDynCTA    = "dyncta"
	KindModBypass = "modbypass"
	KindCCWS      = "ccws"
	KindPBSWS     = "pbs-ws"
	KindPBSFI     = "pbs-fi"
	KindPBSHS     = "pbs-hs"
	KindBatch     = "batch"
	KindWRS       = "wrs"
)

// StaticSpec parameterizes the static and besttlp kinds.
type StaticSpec struct {
	// TLPs is the per-application TLP combination. For besttlp it is the
	// profile-derived best combination; a besttlp spec with no TLPs is
	// unresolved and cannot build a manager yet.
	TLPs []int `json:"tlps,omitempty"`

	// Bypass optionally bypasses the L1 for selected applications. Nil
	// and all-false are the same configuration (and normalize to nil).
	Bypass []bool `json:"bypass,omitempty"`

	// Label overrides the manager's report name (e.g. "alone@4"). It is
	// display-only: not expressible in the flag grammar and dropped from
	// canonical cache keys, since it never affects the simulation.
	Label string `json:"label,omitempty"`
}

// PBSSpec parameterizes the pattern-based searching managers. Zero
// fields take the defaults of core.NewPBS for the kind's objective.
type PBSSpec struct {
	// Scaling is the alone-EB scaling source: "none", "group", or
	// "sampled". Empty means the objective's default (none for WS,
	// sampled for FI/HS).
	Scaling string `json:"scaling,omitempty"`

	// GroupEB supplies the per-application factors for group scaling.
	// JSON/API-only (profile-derived, not flag-expressible).
	GroupEB []float64 `json:"group_eb,omitempty"`

	SweepLevels     []int   `json:"sweep_levels,omitempty"`
	SettleWindows   int     `json:"settle_windows,omitempty"`
	MeasureWindows  int     `json:"measure_windows,omitempty"`
	TunePatience    int     `json:"tune_patience,omitempty"`
	FullSearchEvery int     `json:"full_search_every,omitempty"`
	DriftThreshold  float64 `json:"drift_threshold,omitempty"`
	DriftWindows    int     `json:"drift_windows,omitempty"`
}

// SchemeSpec is the canonical description of one TLP-management policy:
// a kind plus the sub-spec that kind reads (the others stay nil). The
// scalar-knob kinds read their manager's own knob struct. A zero field
// of a sub-spec means "the constructor's default", so SchemeSpec{Kind:
// KindDynCTA} is the paper's DynCTA baseline.
type SchemeSpec struct {
	Kind      string              `json:"kind"`
	Static    *StaticSpec         `json:"static,omitempty"`
	DynCTA    *tlp.DynCTAKnobs    `json:"dyncta,omitempty"`
	CCWS      *tlp.CCWSKnobs      `json:"ccws,omitempty"`
	ModBypass *tlp.ModBypassKnobs `json:"modbypass,omitempty"`
	PBS       *PBSSpec            `json:"pbs,omitempty"`
	Batch     *tlp.BatchKnobs     `json:"batch,omitempty"`
	WRS       *tlp.WRSKnobs       `json:"wrs,omitempty"`
}

// Static returns a fixed-TLP-combination scheme (bypass may be nil).
func Static(tlps []int, bypass []bool) SchemeSpec {
	s := SchemeSpec{Kind: KindStatic, Static: &StaticSpec{
		TLPs:   slices.Clone(tlps),
		Bypass: slices.Clone(bypass),
	}}
	return mustNormalize(s)
}

// Labeled is Static with an explicit report name (e.g. "alone@4").
func Labeled(label string, tlps []int, bypass []bool) SchemeSpec {
	s := Static(tlps, bypass)
	s.Static.Label = label
	return s
}

// BestTLP returns the ++bestTLP scheme resolved to a concrete
// profile-derived combination.
func BestTLP(tlps []int) SchemeSpec {
	return mustNormalize(SchemeSpec{Kind: KindBestTLP, Static: &StaticSpec{TLPs: slices.Clone(tlps)}})
}

// MaxTLP returns the ++maxTLP scheme (every application at the top TLP).
func MaxTLP() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindMaxTLP}) }

// DynCTA returns the ++DynCTA baseline with its default thresholds.
func DynCTA() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindDynCTA}) }

// CCWS returns the CCWS-style baseline with its default thresholds.
func CCWS() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindCCWS}) }

// ModBypass returns the Mod+Bypass baseline with its default thresholds.
func ModBypass() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindModBypass}) }

// PBS returns the pattern-based searching scheme for an objective
// (PBS-WS, PBS-FI, or PBS-HS) with the paper's default knobs.
func PBS(obj metrics.Objective) SchemeSpec {
	kind := KindPBSWS
	switch obj {
	case metrics.ObjFI:
		kind = KindPBSFI
	case metrics.ObjHS:
		kind = KindPBSHS
	}
	return mustNormalize(SchemeSpec{Kind: kind})
}

// Unresolved reports whether the spec still needs profile-derived data
// before it can build a manager (a besttlp scheme with no combination).
func (s SchemeSpec) Unresolved() bool {
	return s.Kind == KindBestTLP && (s.Static == nil || len(s.Static.TLPs) == 0)
}

// isPBS reports whether kind is one of the pattern-based searchers.
func isPBS(kind string) bool {
	return kind == KindPBSWS || kind == KindPBSFI || kind == KindPBSHS
}

// objective returns the EB objective a PBS kind optimizes.
func objective(kind string) metrics.Objective {
	switch kind {
	case KindPBSFI:
		return metrics.ObjFI
	case KindPBSHS:
		return metrics.ObjHS
	default:
		return metrics.ObjWS
	}
}

// defaultPBS reads the default knobs off the real constructor so the
// spec layer can never drift from core.NewPBS.
func defaultPBS(kind string) *PBSSpec {
	p := pbscore.NewPBS(objective(kind))
	return &PBSSpec{
		Scaling:         p.Scaling.String(),
		SweepLevels:     p.SweepLevels,
		SettleWindows:   p.SettleWindows,
		MeasureWindows:  p.MeasureWindows,
		TunePatience:    p.TunePatience,
		FullSearchEvery: p.FullSearchEvery,
	}
}

func scaleMode(s string) (pbscore.ScaleMode, error) {
	switch s {
	case pbscore.NoScale.String():
		return pbscore.NoScale, nil
	case pbscore.GroupScale.String():
		return pbscore.GroupScale, nil
	case pbscore.SampledScale.String():
		return pbscore.SampledScale, nil
	default:
		return 0, fmt.Errorf("spec: unknown scaling %q (none|group|sampled)", s)
	}
}

func mustNormalize(s SchemeSpec) SchemeSpec {
	n, err := s.Normalized()
	if err != nil {
		panic(err) // constructors only build registered kinds
	}
	return n
}

// Normalized returns a deep copy with every omitted knob filled with the
// kind's default, all-false bypass masks dropped, and sub-specs the kind
// does not read cleared — the form in which two equivalent specs compare
// (and hash) equal. ParseScheme and the constructors always return
// normalized specs. Unknown (unregistered) kinds are an error.
func (s SchemeSpec) Normalized() (SchemeSpec, error) {
	d, ok := lookup(s.Kind)
	if !ok {
		return SchemeSpec{}, fmt.Errorf("spec: unknown scheme kind %q (one of %v)", s.Kind, Kinds())
	}
	return d.Normalize(s), nil
}

// fillF/fillI overwrite the default with an explicitly set (non-zero)
// knob. Zero always means "use the default"; none of the knobs has a
// meaningful zero setting (ProbeEvery's "off" is -1).
func fillF(dst *float64, v float64) {
	if v != 0 {
		*dst = v
	}
}

func fillI(dst *int, v int) {
	if v != 0 {
		*dst = v
	}
}

// Validate checks the (normalized) spec against an application count.
// numApps 0 defers the per-application length checks to run time — the
// facade uses it for managers built before the workload is chosen;
// kinds that cannot be built without the count (maxtlp) reject it.
func (s SchemeSpec) Validate(numApps int) error {
	n, err := s.Normalized()
	if err != nil {
		return err
	}
	if numApps < 0 {
		return fmt.Errorf("spec: negative application count %d", numApps)
	}
	d, _ := lookup(n.Kind) // Normalized already proved the kind is registered
	return d.Validate(n, numApps)
}

// Manager validates the spec and builds the tlp.Manager it describes —
// the single registry-backed construction path for every scheme. The
// manager's Name() is deterministic in the spec, so equal specs always
// report (and key) identically.
func (s SchemeSpec) Manager(numApps int) (tlp.Manager, error) {
	if err := s.Validate(numApps); err != nil {
		return nil, err
	}
	n, _ := s.Normalized() // Validate already proved it normalizes
	d, _ := lookup(n.Kind)
	return d.Factory(n, numApps)
}

// MustManager is Manager for specs known valid by construction. The
// panic carries the scheme's flag-grammar string, not just its kind, so
// a bad spec is debuggable from the stack trace alone.
func MustManager(s SchemeSpec, numApps int) tlp.Manager {
	m, err := s.Manager(numApps)
	if err != nil {
		panic(fmt.Errorf("spec: MustManager(%q, %d apps): %w", s.String(), numApps, err))
	}
	return m
}

// PBSManager builds a pbs-* spec's manager with its concrete type, for
// call sites that read the search telemetry (Searching/Searches/
// Restarts/Drifts) or install the phase probe.
func PBSManager(s SchemeSpec, numApps int) (*pbscore.PBS, error) {
	if !isPBS(s.Kind) {
		return nil, fmt.Errorf("spec: %q is not a pbs scheme", s.Kind)
	}
	m, err := s.Manager(numApps)
	if err != nil {
		return nil, err
	}
	return m.(*pbscore.PBS), nil
}

// canonical rewrites the scheme into the form that identifies the
// simulation's behaviour and nothing else, for cache keying:
//
//   - maxtlp and resolved besttlp collapse to the static combination
//     they execute as (so ++bestTLP[2 8], static:2,8, and an alone run
//     at the same levels deduplicate);
//   - display labels are dropped;
//   - every remaining knob is explicit at its default (normalization),
//     so "ccws" and "ccws:hivta=0.15" key identically.
//
// Invalid specs are returned unchanged — they can never execute, so
// their keys only need to be deterministic.
func (s SchemeSpec) canonical(numApps int) SchemeSpec {
	n, err := s.Normalized()
	if err != nil {
		return s
	}
	d, _ := lookup(n.Kind)
	if d.Canonical == nil {
		return n
	}
	return d.Canonical(n, numApps)
}
