package spec

// The two related-work scheme kinds landed on top of the registry: thread
// batching (Li et al.) and warp-resource sharing (Jatala et al.). They
// are ordinary registrations — nothing outside this file special-cases
// them — which is the point of the descriptor table: a new policy is one
// Register call plus its tlp.Manager.

import (
	"fmt"

	"ebm/internal/config"
	"ebm/internal/tlp"
)

// Batch returns the thread-batching scheme with its default knobs.
func Batch() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindBatch}) }

// WRS returns the warp-resource-sharing scheme with its default knobs.
func WRS() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindWRS}) }

func registerBatch() {
	Register(knobbed(Descriptor{
		Kind: KindBatch,
		Knobs: []KnobDef{
			knobI(KindBatch, "period", func(sp *SchemeSpec) *int { return &sub(&sp.Batch).Period }),
			knobI(KindBatch, "hi", func(sp *SchemeSpec) *int { return &sub(&sp.Batch).Hi }),
			knobI(KindBatch, "lo", func(sp *SchemeSpec) *int { return &sub(&sp.Batch).Lo }),
		},
		Validate: func(n SchemeSpec, numApps int) error {
			b := n.Batch
			if b.Period < 1 {
				return fmt.Errorf("spec: batch period %d < 1", b.Period)
			}
			if b.Lo < 1 || b.Hi > config.MaxTLP || b.Lo > b.Hi {
				return fmt.Errorf("spec: batch lo %d / hi %d outside 1 <= lo <= hi <= %d", b.Lo, b.Hi, config.MaxTLP)
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			b := tlp.NewBatch()
			b.BatchKnobs = *n.Batch
			return b, nil
		},
	}, func() SchemeSpec {
		return SchemeSpec{Kind: KindBatch, Batch: &tlp.NewBatch().BatchKnobs}
	}))
}

func registerWRS() {
	Register(knobbed(Descriptor{
		Kind: KindWRS,
		Knobs: []KnobDef{
			knobI(KindWRS, "share", func(sp *SchemeSpec) *int { return &sub(&sp.WRS).Share }),
			knobF(KindWRS, "himem", func(sp *SchemeSpec) *float64 { return &sub(&sp.WRS).HighMemStall }),
			knobF(KindWRS, "loutil", func(sp *SchemeSpec) *float64 { return &sub(&sp.WRS).LowUtil }),
			knobI(KindWRS, "hyst", func(sp *SchemeSpec) *int { return &sub(&sp.WRS).Hysteresis }),
		},
		Validate: func(n SchemeSpec, numApps int) error {
			w := n.WRS
			if w.Share < 1 || w.Share > config.MaxTLP {
				return fmt.Errorf("spec: wrs share %d out of range 1..%d", w.Share, config.MaxTLP)
			}
			if w.Hysteresis < 1 {
				return fmt.Errorf("spec: wrs hysteresis %d < 1", w.Hysteresis)
			}
			if w.HighMemStall <= 0 || w.HighMemStall > 1 {
				return fmt.Errorf("spec: wrs himem %g outside (0,1]", w.HighMemStall)
			}
			if w.LowUtil <= 0 || w.LowUtil > 1 {
				return fmt.Errorf("spec: wrs loutil %g outside (0,1]", w.LowUtil)
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			w := tlp.NewWRS()
			w.WRSKnobs = *n.WRS
			return w, nil
		},
	}, func() SchemeSpec {
		return SchemeSpec{Kind: KindWRS, WRS: &tlp.NewWRS().WRSKnobs}
	}))
}
