package spec

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ebm/internal/tlp"
)

// KnobDef declares one key=value knob of a scheme kind: the key as written
// in the flag grammar, an optional display form for help text (defaults to
// the key), and the setter that applies a raw value string to the
// un-normalized spec. Setters return badArg-style errors for malformed
// values; range checks belong in the descriptor's Validate.
type KnobDef struct {
	Key  string
	Help string // display form in error/help text; "" means Key
	Set  func(sp *SchemeSpec, val string) error

	// fill and format are the scalar knob's share of a kind's Normalize
	// and Format (set by knobF/knobI, read by knobbed): fill overwrites
	// dst's knob with src's when src sets it, and format appends
	// "key=value" when n's knob differs from def's.
	fill   func(dst, src *SchemeSpec)
	format func(args *[]string, n, def *SchemeSpec)
}

// Descriptor is the single source of truth for one scheme kind: its flag
// grammar (knobs, bare-TLP args), normalization and validation rules, the
// manager factory, the cache-key canonical form, and everything the CLIs
// derive (help text, victim-tag requirements). Registering a descriptor
// makes the kind parseable, buildable, and cache-keyable everywhere —
// there is no other switch to extend.
type Descriptor struct {
	// Kind is the name written in flag strings and JSON ("dyncta").
	Kind string

	// Knobs are the kind's key=value args, in help-text order.
	Knobs []KnobDef

	// AcceptsTLPs marks kinds whose bare integer args build a TLP
	// combination (static/besttlp).
	AcceptsTLPs bool

	// Normalize fills every omitted knob with the kind's default and
	// clears sub-specs the kind does not read. It must be total: any
	// spec of this kind normalizes (validation happens later).
	Normalize func(s SchemeSpec) SchemeSpec

	// Validate checks the normalized spec against an application count
	// (0 defers per-application length checks to run time).
	Validate func(n SchemeSpec, numApps int) error

	// Factory builds the manager from a validated, normalized spec.
	Factory func(n SchemeSpec, numApps int) (tlp.Manager, error)

	// Canonical rewrites the normalized spec into the form that
	// identifies the simulation's behaviour and nothing else, for cache
	// keying. Nil means the normalized spec is already canonical.
	Canonical func(n SchemeSpec, numApps int) SchemeSpec

	// Format renders the normalized spec's args for String(), emitting
	// only knobs that differ from the kind's defaults. Nil means the
	// kind has no args.
	Format func(n SchemeSpec) []string

	// VictimTags is the victim-tag detector capacity the kind's
	// telemetry needs (0 when it reads no VTA signal). The CLIs enable
	// the detector from this instead of special-casing kinds.
	VictimTags int
}

var registry = struct {
	order  []string
	byKind map[string]*Descriptor
}{byKind: map[string]*Descriptor{}}

// Register adds a scheme kind to the registry. It panics on a duplicate
// or incomplete descriptor — registration is an init-time programming
// contract, not a runtime input.
func Register(d Descriptor) {
	switch {
	case d.Kind == "":
		panic("spec: Register: empty kind")
	case d.Normalize == nil || d.Validate == nil || d.Factory == nil:
		panic(fmt.Sprintf("spec: Register(%q): Normalize, Validate and Factory are required", d.Kind))
	}
	if _, dup := registry.byKind[d.Kind]; dup {
		panic(fmt.Sprintf("spec: Register(%q): duplicate kind", d.Kind))
	}
	registry.byKind[d.Kind] = &d
	registry.order = append(registry.order, d.Kind)
}

// lookup returns the kind's descriptor.
func lookup(kind string) (*Descriptor, bool) {
	d, ok := registry.byKind[kind]
	return d, ok
}

// Kinds returns every registered scheme kind in registration order.
func Kinds() []string {
	return slices.Clone(registry.order)
}

// Lookup returns a copy of the kind's descriptor, for callers that need
// registry metadata (victim tags) without building a manager.
func Lookup(kind string) (Descriptor, bool) {
	d, ok := lookup(kind)
	if !ok {
		return Descriptor{}, false
	}
	return *d, true
}

// VictimTagsFor returns the victim-tag detector capacity the scheme's
// kind requires (0 for unregistered kinds and kinds that read no VTA
// signal). The CLIs size RunSpec.VictimTags from this.
func VictimTagsFor(s SchemeSpec) int {
	d, ok := lookup(s.Kind)
	if !ok {
		return 0
	}
	return d.VictimTags
}

// FlagHelp renders the -scheme usage line from the registry, so help
// text can never drift from the supported kinds.
func FlagHelp() string {
	return strings.Join(Kinds(), "|") +
		"; optional :args — TLP levels for static/besttlp (static:2,8), key=value knobs otherwise (see README)"
}

// knobHelp joins a kind's knob display forms for error/help text.
func knobHelp(kind string) string {
	d, ok := lookup(kind)
	if !ok {
		return ""
	}
	parts := make([]string, 0, len(d.Knobs))
	for _, k := range d.Knobs {
		if k.Help != "" {
			parts = append(parts, k.Help)
		} else {
			parts = append(parts, k.Key)
		}
	}
	return strings.Join(parts, " ")
}

func badArg(kind, tok string) error {
	help := knobHelp(kind)
	if help == "" {
		help = "none"
	}
	return fmt.Errorf("spec: bad %s arg %q (knobs: %s)", kind, tok, help)
}

// knobF/knobI build float64/int knobs over a field accessor (the accessor
// materializes the sub-spec on demand, so parsing never reads nil). A
// float knob must be finite: JSON, and so every cache key, has no NaN
// or infinity.
func knobF(kind, key string, get func(sp *SchemeSpec) *float64) KnobDef {
	return KnobDef{
		Key: key,
		Set: func(sp *SchemeSpec, val string) error {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return badArg(kind, key+"="+val)
			}
			*get(sp) = v
			return nil
		},
		fill:   func(dst, src *SchemeSpec) { fillF(get(dst), *get(src)) },
		format: func(args *[]string, n, def *SchemeSpec) { numArg(args, key, *get(n), *get(def)) },
	}
}

func knobI(kind, key string, get func(sp *SchemeSpec) *int) KnobDef {
	return KnobDef{
		Key: key,
		Set: func(sp *SchemeSpec, val string) error {
			v, err := strconv.Atoi(val)
			if err != nil {
				return badArg(kind, key+"="+val)
			}
			*get(sp) = v
			return nil
		},
		fill:   func(dst, src *SchemeSpec) { fillI(get(dst), *get(src)) },
		format: func(args *[]string, n, def *SchemeSpec) { intArg(args, key, *get(n), *get(def)) },
	}
}

// sub returns the sub-spec *p, allocating a zero one first if it is nil.
func sub[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// knobbed completes the descriptor of a kind whose knobs are all
// knobF/knobI scalars. defaults returns the bare kind's normalized spec,
// whose knob block is read off the manager's constructor. Normalize
// starts from it and overwrites every knob the spec sets; Format prints
// the knobs that differ from it.
func knobbed(d Descriptor, defaults func() SchemeSpec) Descriptor {
	knobs := d.Knobs
	d.Normalize = func(s SchemeSpec) SchemeSpec {
		n := defaults()
		for _, k := range knobs {
			k.fill(&n, &s)
		}
		return n
	}
	d.Format = func(n SchemeSpec) []string {
		def := defaults()
		var args []string
		for _, k := range knobs {
			k.format(&args, &n, &def)
		}
		return args
	}
	return d
}

// The registrations run from one init so the presentation order is fixed
// regardless of file compilation order: the nine kinds the repo has
// always had, then the related-work additions.
func init() {
	registerBuiltins()
	registerBatch()
	registerWRS()
}
