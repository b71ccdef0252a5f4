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

// BatchSpec parameterizes the thread-batching kind. Zero fields take the
// defaults of tlp.NewBatch.
type BatchSpec struct {
	// Period is how many sampling windows one application stays the
	// batched (high-TLP) one before the turn rotates.
	Period int `json:"period,omitempty"`
	// Hi is the active application's TLP; Lo is every parked one's.
	Hi int `json:"hi,omitempty"`
	Lo int `json:"lo,omitempty"`
}

// WRSSpec parameterizes the warp-resource-sharing kind. Zero fields take
// the defaults of tlp.NewWRS.
type WRSSpec struct {
	// Share is the per-application fair-share TLP level the conserved
	// warp budget is computed from.
	Share        int     `json:"share,omitempty"`
	HighMemStall float64 `json:"high_mem_stall,omitempty"`
	LowUtil      float64 `json:"low_util,omitempty"`
	Hysteresis   int     `json:"hysteresis,omitempty"`
}

// Batch returns the thread-batching scheme with its default knobs.
func Batch() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindBatch}) }

// WRS returns the warp-resource-sharing scheme with its default knobs.
func WRS() SchemeSpec { return mustNormalize(SchemeSpec{Kind: KindWRS}) }

// defaultBatch / defaultWRS mirror the manager constructors' defaults,
// like the other kinds, so the spec layer can never drift from them.
func defaultBatch() *BatchSpec {
	b := tlp.NewBatch()
	return &BatchSpec{Period: b.Period, Hi: b.Hi, Lo: b.Lo}
}

func defaultWRS() *WRSSpec {
	w := tlp.NewWRS()
	return &WRSSpec{Share: w.Share, HighMemStall: w.HighMemStall, LowUtil: w.LowUtil, Hysteresis: w.Hysteresis}
}

func batchSub(sp *SchemeSpec) *BatchSpec {
	if sp.Batch == nil {
		sp.Batch = &BatchSpec{}
	}
	return sp.Batch
}

func wrsSub(sp *SchemeSpec) *WRSSpec {
	if sp.WRS == nil {
		sp.WRS = &WRSSpec{}
	}
	return sp.WRS
}

func registerBatch() {
	Register(Descriptor{
		Kind: KindBatch,
		Knobs: []KnobDef{
			knobI(KindBatch, "period", func(sp *SchemeSpec) *int { return &batchSub(sp).Period }),
			knobI(KindBatch, "hi", func(sp *SchemeSpec) *int { return &batchSub(sp).Hi }),
			knobI(KindBatch, "lo", func(sp *SchemeSpec) *int { return &batchSub(sp).Lo }),
		},
		Normalize: func(s SchemeSpec) SchemeSpec {
			b := defaultBatch()
			if s.Batch != nil {
				fillI(&b.Period, s.Batch.Period)
				fillI(&b.Hi, s.Batch.Hi)
				fillI(&b.Lo, s.Batch.Lo)
			}
			return SchemeSpec{Kind: KindBatch, Batch: b}
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
			b.Period = n.Batch.Period
			b.Hi = n.Batch.Hi
			b.Lo = n.Batch.Lo
			return b, nil
		},
		Format: func(n SchemeSpec) []string {
			def := defaultBatch()
			var args []string
			intArg(&args, "period", n.Batch.Period, def.Period)
			intArg(&args, "hi", n.Batch.Hi, def.Hi)
			intArg(&args, "lo", n.Batch.Lo, def.Lo)
			return args
		},
	})
}

func registerWRS() {
	Register(Descriptor{
		Kind: KindWRS,
		Knobs: []KnobDef{
			knobI(KindWRS, "share", func(sp *SchemeSpec) *int { return &wrsSub(sp).Share }),
			knobF(KindWRS, "himem", func(sp *SchemeSpec) *float64 { return &wrsSub(sp).HighMemStall }),
			knobF(KindWRS, "loutil", func(sp *SchemeSpec) *float64 { return &wrsSub(sp).LowUtil }),
			knobI(KindWRS, "hyst", func(sp *SchemeSpec) *int { return &wrsSub(sp).Hysteresis }),
		},
		Normalize: func(s SchemeSpec) SchemeSpec {
			w := defaultWRS()
			if s.WRS != nil {
				fillI(&w.Share, s.WRS.Share)
				fillF(&w.HighMemStall, s.WRS.HighMemStall)
				fillF(&w.LowUtil, s.WRS.LowUtil)
				fillI(&w.Hysteresis, s.WRS.Hysteresis)
			}
			return SchemeSpec{Kind: KindWRS, WRS: w}
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
			w.Share = n.WRS.Share
			w.HighMemStall = n.WRS.HighMemStall
			w.LowUtil = n.WRS.LowUtil
			w.Hysteresis = n.WRS.Hysteresis
			return w, nil
		},
		Format: func(n SchemeSpec) []string {
			def := defaultWRS()
			var args []string
			intArg(&args, "share", n.WRS.Share, def.Share)
			numArg(&args, "himem", n.WRS.HighMemStall, def.HighMemStall)
			numArg(&args, "loutil", n.WRS.LowUtil, def.LowUtil)
			intArg(&args, "hyst", n.WRS.Hysteresis, def.Hysteresis)
			return args
		},
	})
}
