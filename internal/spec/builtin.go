package spec

// The nine scheme kinds the paper evaluates, registered as descriptors.
// The scalar-knob kinds (dyncta, ccws, modbypass) are built by knobbed
// over their manager's knob struct; the grammar golden, the cache-key
// golden and the manager-name tests pin their observable behaviour.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ebm/internal/config"
	pbscore "ebm/internal/core"
	"ebm/internal/tlp"
)

func registerBuiltins() {
	registerStaticKind(KindStatic)
	registerStaticKind(KindBestTLP)
	registerMaxTLP()
	registerDynCTA()
	registerModBypass()
	registerCCWS()
	registerPBSKind(KindPBSWS)
	registerPBSKind(KindPBSFI)
	registerPBSKind(KindPBSHS)
}

// bypassKnob parses the shared static/besttlp bypass mask ("bypass=tf").
func bypassKnob() KnobDef {
	return KnobDef{Key: "bypass", Help: "bypass=tf…", Set: func(sp *SchemeSpec, val string) error {
		mask := make([]bool, len(val))
		for j := 0; j < len(val); j++ {
			switch val[j] {
			case 't':
				mask[j] = true
			case 'f':
			default:
				return fmt.Errorf("spec: bypass mask %q must be t/f per application", val)
			}
		}
		sub(&sp.Static).Bypass = mask
		return nil
	}}
}

// registerStaticKind registers static or besttlp; the two share grammar
// and validation and differ only in the default report name.
func registerStaticKind(kind string) {
	Register(Descriptor{
		Kind:        kind,
		Knobs:       []KnobDef{bypassKnob()},
		AcceptsTLPs: true,
		Normalize: func(s SchemeSpec) SchemeSpec {
			out := SchemeSpec{Kind: s.Kind}
			st := &StaticSpec{}
			if s.Static != nil {
				st.TLPs = slices.Clone(s.Static.TLPs)
				st.Label = s.Static.Label
				if slices.Contains(s.Static.Bypass, true) {
					st.Bypass = slices.Clone(s.Static.Bypass)
				}
			}
			out.Static = st
			return out
		},
		Validate: func(n SchemeSpec, numApps int) error {
			if n.Unresolved() {
				return fmt.Errorf("spec: besttlp combination unresolved; resolve it from alone profiles (spec.BestTLP)")
			}
			st := n.Static
			if len(st.TLPs) == 0 {
				return fmt.Errorf("spec: %s needs a TLP combination, e.g. %q", n.Kind, n.Kind+":2,8")
			}
			if numApps > 0 && len(st.TLPs) != numApps {
				return fmt.Errorf("spec: %s has %d TLP values for %d applications", n.Kind, len(st.TLPs), numApps)
			}
			for _, t := range st.TLPs {
				if t < 1 || t > config.MaxTLP {
					return fmt.Errorf("spec: TLP %d out of range 1..%d", t, config.MaxTLP)
				}
			}
			if st.Bypass != nil && len(st.Bypass) != len(st.TLPs) {
				return fmt.Errorf("spec: bypass mask has %d values for %d applications", len(st.Bypass), len(st.TLPs))
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			name := n.Static.Label
			if name == "" {
				if n.Kind == KindBestTLP {
					// The combination is part of the name so reports
					// distinguish runs even when re-profiling changes the
					// best TLPs.
					name = fmt.Sprintf("++bestTLP%v", n.Static.TLPs)
				} else {
					name = fmt.Sprintf("static%v", n.Static.TLPs)
				}
			}
			return tlp.NewStatic(name, n.Static.TLPs, n.Static.Bypass)
		},
		Canonical: func(n SchemeSpec, numApps int) SchemeSpec {
			if n.Unresolved() {
				return n
			}
			return SchemeSpec{Kind: KindStatic, Static: &StaticSpec{TLPs: n.Static.TLPs, Bypass: n.Static.Bypass}}
		},
		Format: func(n SchemeSpec) []string {
			var args []string
			for _, t := range n.Static.TLPs {
				args = append(args, strconv.Itoa(t))
			}
			if n.Static.Bypass != nil {
				mask := make([]byte, len(n.Static.Bypass))
				for j, b := range n.Static.Bypass {
					if b {
						mask[j] = 't'
					} else {
						mask[j] = 'f'
					}
				}
				args = append(args, "bypass="+string(mask))
			}
			return args
		},
	})
}

func registerMaxTLP() {
	Register(Descriptor{
		Kind: KindMaxTLP,
		Normalize: func(s SchemeSpec) SchemeSpec {
			return SchemeSpec{Kind: KindMaxTLP} // no knobs
		},
		Validate: func(n SchemeSpec, numApps int) error {
			if numApps == 0 {
				return fmt.Errorf("spec: maxtlp needs the application count")
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			return tlp.NewMaxTLP(numApps), nil
		},
		Canonical: func(n SchemeSpec, numApps int) SchemeSpec {
			if numApps <= 0 {
				return n
			}
			tlps := make([]int, numApps)
			for i := range tlps {
				tlps[i] = config.MaxTLP
			}
			return SchemeSpec{Kind: KindStatic, Static: &StaticSpec{TLPs: tlps}}
		},
	})
}

func registerDynCTA() {
	Register(knobbed(Descriptor{
		Kind: KindDynCTA,
		Knobs: []KnobDef{
			knobF(KindDynCTA, "himem", func(sp *SchemeSpec) *float64 { return &sub(&sp.DynCTA).HighMemStall }),
			knobF(KindDynCTA, "lomem", func(sp *SchemeSpec) *float64 { return &sub(&sp.DynCTA).LowMemStall }),
			knobF(KindDynCTA, "loutil", func(sp *SchemeSpec) *float64 { return &sub(&sp.DynCTA).LowUtil }),
			knobI(KindDynCTA, "hyst", func(sp *SchemeSpec) *int { return &sub(&sp.DynCTA).Hysteresis }),
		},
		Validate: func(n SchemeSpec, numApps int) error {
			d := n.DynCTA
			if d.Hysteresis < 1 {
				return fmt.Errorf("spec: dyncta hysteresis %d < 1", d.Hysteresis)
			}
			if d.LowMemStall >= d.HighMemStall {
				return fmt.Errorf("spec: dyncta lomem %g >= himem %g", d.LowMemStall, d.HighMemStall)
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			d := tlp.NewDynCTA()
			d.DynCTAKnobs = *n.DynCTA
			return d, nil
		},
	}, func() SchemeSpec {
		return SchemeSpec{Kind: KindDynCTA, DynCTA: &tlp.NewDynCTA().DynCTAKnobs}
	}))
}

func registerCCWS() {
	Register(knobbed(Descriptor{
		Kind: KindCCWS,
		// CCWS reads the VTARate signal, live only when the run enables
		// the victim-tag detector; 1024 tags is the paper's capacity.
		VictimTags: 1024,
		Knobs: []KnobDef{
			knobF(KindCCWS, "hivta", func(sp *SchemeSpec) *float64 { return &sub(&sp.CCWS).HighVTA }),
			knobF(KindCCWS, "lovta", func(sp *SchemeSpec) *float64 { return &sub(&sp.CCWS).LowVTA }),
			knobF(KindCCWS, "loutil", func(sp *SchemeSpec) *float64 { return &sub(&sp.CCWS).LowUtil }),
			knobI(KindCCWS, "hyst", func(sp *SchemeSpec) *int { return &sub(&sp.CCWS).Hysteresis }),
		},
		Validate: func(n SchemeSpec, numApps int) error {
			c := n.CCWS
			if c.Hysteresis < 1 {
				return fmt.Errorf("spec: ccws hysteresis %d < 1", c.Hysteresis)
			}
			if c.LowVTA >= c.HighVTA {
				return fmt.Errorf("spec: ccws lovta %g >= hivta %g", c.LowVTA, c.HighVTA)
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			c := tlp.NewCCWS()
			c.CCWSKnobs = *n.CCWS
			return c, nil
		},
	}, func() SchemeSpec {
		return SchemeSpec{Kind: KindCCWS, CCWS: &tlp.NewCCWS().CCWSKnobs}
	}))
}

func registerModBypass() {
	d := knobbed(Descriptor{
		Kind: KindModBypass,
		Knobs: []KnobDef{
			knobF(KindModBypass, "l1mr", func(sp *SchemeSpec) *float64 { return &sub(&sp.ModBypass).BypassL1MR }),
			knobI(KindModBypass, "confirm", func(sp *SchemeSpec) *int { return &sub(&sp.ModBypass).Confirm }),
			knobI(KindModBypass, "probe", func(sp *SchemeSpec) *int { return &sub(&sp.ModBypass).ProbeEvery }),
		},
		Validate: func(n SchemeSpec, numApps int) error {
			m := n.ModBypass
			if m.BypassL1MR <= 0 || m.BypassL1MR > 1 {
				return fmt.Errorf("spec: modbypass l1mr %g outside (0,1]", m.BypassL1MR)
			}
			if m.Confirm < 1 {
				return fmt.Errorf("spec: modbypass confirm %d < 1", m.Confirm)
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			m := tlp.NewModBypass()
			m.ModBypassKnobs = *n.ModBypass
			return m, nil
		},
	}, func() SchemeSpec {
		return SchemeSpec{Kind: KindModBypass, ModBypass: &tlp.NewModBypass().ModBypassKnobs}
	})
	fill := d.Normalize
	d.Normalize = func(s SchemeSpec) SchemeSpec {
		n := fill(s)
		if n.ModBypass.ProbeEvery < 0 {
			n.ModBypass.ProbeEvery = -1 // every negative value means "never probe"
		}
		return n
	}
	Register(d)
}

func registerPBSKind(kind string) {
	Register(Descriptor{
		Kind: kind,
		Knobs: []KnobDef{
			{Key: "scaling", Set: func(sp *SchemeSpec, val string) error {
				if _, err := scaleMode(val); err != nil {
					return err
				}
				sub(&sp.PBS).Scaling = val
				return nil
			}},
			{Key: "sweep", Set: func(sp *SchemeSpec, val string) error {
				var levels []int
				for _, part := range strings.Split(val, "+") {
					lvl, err := strconv.Atoi(part)
					if err != nil {
						return badArg(kind, "sweep="+val)
					}
					levels = append(levels, lvl)
				}
				sub(&sp.PBS).SweepLevels = levels
				return nil
			}},
			knobI(kind, "settle", func(sp *SchemeSpec) *int { return &sub(&sp.PBS).SettleWindows }),
			knobI(kind, "measure", func(sp *SchemeSpec) *int { return &sub(&sp.PBS).MeasureWindows }),
			knobI(kind, "patience", func(sp *SchemeSpec) *int { return &sub(&sp.PBS).TunePatience }),
			knobI(kind, "fullevery", func(sp *SchemeSpec) *int { return &sub(&sp.PBS).FullSearchEvery }),
			knobF(kind, "drift", func(sp *SchemeSpec) *float64 { return &sub(&sp.PBS).DriftThreshold }),
			knobI(kind, "driftwin", func(sp *SchemeSpec) *int { return &sub(&sp.PBS).DriftWindows }),
		},
		Normalize: func(s SchemeSpec) SchemeSpec {
			p := defaultPBS(kind)
			if s.PBS != nil {
				if s.PBS.Scaling != "" {
					p.Scaling = s.PBS.Scaling
				}
				if len(s.PBS.SweepLevels) > 0 {
					p.SweepLevels = slices.Clone(s.PBS.SweepLevels)
				}
				p.GroupEB = slices.Clone(s.PBS.GroupEB)
				fillI(&p.SettleWindows, s.PBS.SettleWindows)
				fillI(&p.MeasureWindows, s.PBS.MeasureWindows)
				fillI(&p.TunePatience, s.PBS.TunePatience)
				fillI(&p.FullSearchEvery, s.PBS.FullSearchEvery)
				p.DriftThreshold = s.PBS.DriftThreshold
				p.DriftWindows = s.PBS.DriftWindows
			}
			// The drift detector is one feature: no threshold means the window
			// count is dead, and an enabled detector acts on at least one
			// window — normalize both so equivalent configs compare equal.
			if p.DriftThreshold == 0 {
				p.DriftWindows = 0
			} else if p.DriftWindows == 0 {
				p.DriftWindows = 1
			}
			p.SweepLevels = slices.Clone(p.SweepLevels)
			return SchemeSpec{Kind: kind, PBS: p}
		},
		Validate: func(n SchemeSpec, numApps int) error {
			p := n.PBS
			mode, err := scaleMode(p.Scaling)
			if err != nil {
				return err
			}
			if mode == pbscore.GroupScale {
				if len(p.GroupEB) == 0 {
					return fmt.Errorf("spec: %s group scaling needs per-application group_eb factors", n.Kind)
				}
				if numApps > 0 && len(p.GroupEB) != numApps {
					return fmt.Errorf("spec: %s has %d group_eb factors for %d applications", n.Kind, len(p.GroupEB), numApps)
				}
			}
			if len(p.SweepLevels) == 0 {
				return fmt.Errorf("spec: %s needs sweep levels", n.Kind)
			}
			for _, t := range p.SweepLevels {
				if t < 1 || t > config.MaxTLP {
					return fmt.Errorf("spec: sweep level %d out of range 1..%d", t, config.MaxTLP)
				}
			}
			if p.MeasureWindows < 1 || p.SettleWindows < 0 {
				return fmt.Errorf("spec: %s measure_windows %d / settle_windows %d invalid", n.Kind, p.MeasureWindows, p.SettleWindows)
			}
			if p.DriftThreshold < 0 || p.DriftWindows < 0 {
				return fmt.Errorf("spec: %s drift knobs must be non-negative", n.Kind)
			}
			return nil
		},
		Factory: func(n SchemeSpec, numApps int) (tlp.Manager, error) {
			p := pbscore.NewPBS(objective(n.Kind))
			mode, _ := scaleMode(n.PBS.Scaling) // validated above
			p.Scaling = mode
			p.GroupValues = slices.Clone(n.PBS.GroupEB)
			p.SweepLevels = slices.Clone(n.PBS.SweepLevels)
			p.SettleWindows = n.PBS.SettleWindows
			p.MeasureWindows = n.PBS.MeasureWindows
			p.TunePatience = n.PBS.TunePatience
			p.FullSearchEvery = n.PBS.FullSearchEvery
			p.DriftThreshold = n.PBS.DriftThreshold
			p.DriftWindows = n.PBS.DriftWindows
			return p, nil
		},
		Format: func(n SchemeSpec) []string {
			def := defaultPBS(n.Kind)
			var args []string
			if n.PBS.Scaling != def.Scaling {
				args = append(args, "scaling="+n.PBS.Scaling)
			}
			if !slices.Equal(n.PBS.SweepLevels, def.SweepLevels) {
				parts := make([]string, len(n.PBS.SweepLevels))
				for j, lvl := range n.PBS.SweepLevels {
					parts[j] = strconv.Itoa(lvl)
				}
				args = append(args, "sweep="+strings.Join(parts, "+"))
			}
			intArg(&args, "settle", n.PBS.SettleWindows, def.SettleWindows)
			intArg(&args, "measure", n.PBS.MeasureWindows, def.MeasureWindows)
			intArg(&args, "patience", n.PBS.TunePatience, def.TunePatience)
			intArg(&args, "fullevery", n.PBS.FullSearchEvery, def.FullSearchEvery)
			numArg(&args, "drift", n.PBS.DriftThreshold, 0)
			if n.PBS.DriftThreshold != 0 {
				intArg(&args, "driftwin", n.PBS.DriftWindows, 1)
			}
			return args
		},
	})
}

// numArg/intArg append a key=value arg when the knob differs from its
// default (the Format building blocks, shared by every kind).
func numArg(args *[]string, key string, v, def float64) {
	if v != def {
		*args = append(*args, key+"="+strconv.FormatFloat(v, 'g', -1, 64))
	}
}

func intArg(args *[]string, key string, v, def int) {
	if v != def {
		*args = append(*args, key+"="+strconv.Itoa(v))
	}
}
