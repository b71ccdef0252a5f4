package core

import (
	"fmt"

	"ebm/internal/tlp"
)

// pbsState is every mutable field of the PBS search state machine, and
// what a checkpoint encodes. Tuning-knob configuration (Objective,
// Scaling, SweepLevels, ...) is construction-time and re-derived from the
// scheme on restore. Nil-ness is load-bearing for Scale (nil means
// "re-measure after the sweeps" in SampledScale mode) and CapLevel; gob
// preserves nil for omitted slice fields and every non-nil occurrence of
// these slices has non-zero length, so the round trip is exact.
type pbsState struct {
	NumApps int
	Phase   phase
	Settle  int
	Cur     tlp.Decision

	Scale    []float64
	ScaleApp int

	SweepApp   int
	SweepIdx   int
	SweepM     [][]float64 // [app][levelIdx] metric
	OwnEB      [][]float64 // [app][levelIdx] that app's own EB during its sweep
	SweepD     [][]float64 // [app][levelIdx] scaled EB-difference (FI mode)
	SweepSum   [][]float64 // [app][levelIdx] scaled EB sum (FI-mode health)
	SweepRawA  [][]float64 // [app][levelIdx] raw EB of app 0 (FI mode)
	SweepRawB  [][]float64 // [app][levelIdx] raw EB of app 1 (FI mode)
	CapLevel   []int       // per-app Guideline-2 cap: own-EB inflection level
	Critical   int
	FixedTLP   int
	TuneOrder  []int // apps to tune, after the critical one
	TuneAppIdx int
	TuneLvlIdx int // index into descending levels
	TuneBestM  float64
	TuneBestT  int
	TuneMiss   int
	HaveBest   bool
	TuneDiffs  []float64 // FI mode: EB-difference per visited tune level
	TuneSums   []float64 // FI mode: scaled EB sum per visited tune level

	StableM    float64 // metric value when the search stabilized
	DriftCount int

	// Measurement accumulator (averaging MeasureWindows windows).
	AccN   int
	AccM   float64
	AccEB  []float64
	AccD   float64
	AccSum float64

	SinceFull int // relaunch-restarts since the last full sweep search

	Table    []TableEntry
	Searches uint64 // completed searches (telemetry)
	Restarts uint64
	Drifts   uint64
}

// StateBytes implements tlp.Stater.
func (p *PBS) StateBytes() ([]byte, error) { return tlp.EncodeState(p.st) }

// SetStateBytes implements tlp.Stater.
func (p *PBS) SetStateBytes(b []byte) error {
	if err := tlp.DecodeState(b, &p.st); err != nil {
		return fmt.Errorf("core: pbs state: %w", err)
	}
	return nil
}
