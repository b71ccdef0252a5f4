package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ebm/internal/config"
	"ebm/internal/metrics"
	"ebm/internal/tlp"
)

// numAppsFor picks the application count a spec's manager is built for
// in the round-trip tests.
func numAppsFor(s SchemeSpec) int {
	if (s.Kind == KindStatic || s.Kind == KindBestTLP) && s.Static != nil {
		return len(s.Static.TLPs)
	}
	return 2
}

// grammarCorpus enumerates every kind crossed with a grid of knob
// settings: the defaults, each knob individually off-default, and a
// combined variant. It backs both the exhaustive round-trip test (every
// entry must survive both round trips) and the FuzzParseScheme seed set.
func grammarCorpus() []string {
	out := []string{
		"static:4",
		"static:2,8",
		"static:2,8,24",
		"static:2,8,bypass=tf",
		"static:24,24,bypass=tt",
		"besttlp:2,8",
		"besttlp:6,6,bypass=ft",
		"maxtlp",

		"dyncta",
		"dyncta:himem=0.6", "dyncta:lomem=0.1", "dyncta:loutil=0.5", "dyncta:hyst=4",
		"dyncta:himem=0.9,lomem=0.05,loutil=0.3,hyst=1",

		"ccws",
		"ccws:hivta=0.3", "ccws:lovta=0.01", "ccws:loutil=0.5", "ccws:hyst=5",
		"ccws:hivta=0.2,lovta=0.1,hyst=3",

		"modbypass",
		"modbypass:l1mr=0.5", "modbypass:confirm=5", "modbypass:probe=-1", "modbypass:probe=64",
		"modbypass:l1mr=0.99,confirm=1,probe=16",

		"batch",
		"batch:period=4", "batch:hi=16", "batch:lo=1",
		"batch:period=2,hi=12,lo=4",

		"wrs",
		"wrs:share=4", "wrs:himem=0.8", "wrs:loutil=0.5", "wrs:hyst=3",
		"wrs:share=12,himem=0.4,loutil=0.9,hyst=1",
	}
	for _, kind := range []string{KindPBSWS, KindPBSFI, KindPBSHS} {
		out = append(out, kind)
		for _, knob := range []string{
			"scaling=none", "scaling=sampled", "sweep=1+4+16", "sweep=2",
			"settle=3", "measure=5", "patience=1", "fullevery=9",
			"drift=0.6", "drift=0.6,driftwin=4",
		} {
			out = append(out, kind+":"+knob)
		}
		out = append(out, kind+":sweep=1+2+4+8,measure=3,drift=0.25,driftwin=2")
	}
	return out
}

// gridSpecs parses the grammar corpus and appends the JSON-only
// variants. Every entry must survive both round trips.
func gridSpecs(t *testing.T) []SchemeSpec {
	t.Helper()
	var out []SchemeSpec
	for _, s := range grammarCorpus() {
		sp, err := ParseScheme(s)
		if err != nil {
			t.Fatalf("grid spec %q: %v", s, err)
		}
		out = append(out, sp)
	}

	// JSON-only features: display labels and group scaling factors.
	out = append(out, Labeled("alone@4", []int{4}, nil))
	group := PBS(metrics.ObjFI)
	group.PBS.Scaling = "group"
	group.PBS.GroupEB = []float64{1.25, 2.5}
	out = append(out, mustNormalize(group))
	return out
}

// TestRoundTripExhaustive is the registry's core contract: for every
// kind × knob setting, the flag string and the JSON encoding both
// reproduce the identical normalized spec, and the spec builds an
// identically named manager.
func TestRoundTripExhaustive(t *testing.T) {
	for _, s := range gridSpecs(t) {
		n := numAppsFor(s)

		// Flag-string round trip. Labels and group factors are JSON-only,
		// so compare against the spec with them stripped.
		want := s
		if want.Static != nil && want.Static.Label != "" {
			st := *want.Static
			st.Label = ""
			want.Static = &st
		}
		if want.PBS != nil && want.PBS.GroupEB != nil {
			p := *want.PBS
			p.GroupEB = nil
			want.PBS = &p
			want = mustNormalize(want) // group scaling w/o factors still parses
		}
		parsed, err := ParseScheme(s.String())
		if err != nil {
			t.Errorf("%s: ParseScheme(String) failed: %v", s, err)
			continue
		}
		if !reflect.DeepEqual(parsed, want) {
			t.Errorf("%s: flag round trip changed the spec:\n got %#v\nwant %#v", s, parsed, want)
		}

		// JSON round trip preserves everything, including labels/factors.
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s, err)
		}
		var back SchemeSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", s, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%s: JSON round trip changed the spec:\n got %#v\nwant %#v", s, back, s)
		}

		// Both decodings build managers named identically to the original's.
		m1, err := s.Manager(n)
		if err != nil {
			t.Errorf("%s: Manager(%d): %v", s, n, err)
			continue
		}
		// Skip when parsing legitimately stripped a JSON-only display
		// label or group factors, which change the reported name.
		if (s.Static == nil || s.Static.Label == "") && (s.PBS == nil || s.PBS.GroupEB == nil) {
			m2, err := parsed.Manager(n)
			if err != nil {
				t.Errorf("%s: parsed Manager(%d): %v", s, n, err)
			} else if m1.Name() != m2.Name() {
				t.Errorf("%s: manager names diverge: %q vs %q", s, m1.Name(), m2.Name())
			}
		}
		m3, err := back.Manager(n)
		if err != nil {
			t.Errorf("%s: JSON Manager(%d): %v", s, n, err)
		} else if m1.Name() != m3.Name() {
			t.Errorf("%s: JSON manager name diverges: %q vs %q", s, m1.Name(), m3.Name())
		}
	}
}

// TestManagerNames pins the report names the registry produces — the
// strings every figure and historical cache key was built around.
func TestManagerNames(t *testing.T) {
	cases := []struct {
		s    SchemeSpec
		n    int
		name string
	}{
		{Static([]int{2, 8}, nil), 2, "static[2 8]"},
		{Labeled("alone@4", []int{4}, nil), 1, "alone@4"},
		{BestTLP([]int{2, 8}), 2, "++bestTLP[2 8]"},
		{MaxTLP(), 2, "++maxTLP"},
		{DynCTA(), 2, "++DynCTA"},
		{CCWS(), 2, "++CCWS"},
		{ModBypass(), 2, "Mod+Bypass"},
		{PBS(metrics.ObjWS), 2, "PBS-WS"},
		{PBS(metrics.ObjFI), 2, "PBS-FI(sampled)"},
		{PBS(metrics.ObjHS), 2, "PBS-HS(sampled)"},
	}
	for _, c := range cases {
		m, err := c.s.Manager(c.n)
		if err != nil {
			t.Errorf("%s: %v", c.s, err)
			continue
		}
		if m.Name() != c.name {
			t.Errorf("%s: name %q, want %q", c.s, m.Name(), c.name)
		}
	}
}

func TestNormalizationEquivalences(t *testing.T) {
	// Stating a default explicitly is the same spec as omitting it.
	explicit, err := ParseScheme("ccws:hivta=0.15")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, CCWS()) {
		t.Errorf("default-valued knob broke equivalence: %#v vs %#v", explicit, CCWS())
	}

	// All-false bypass masks are no mask.
	if s := Static([]int{2, 8}, []bool{false, false}); s.Static.Bypass != nil {
		t.Errorf("all-false bypass not dropped: %#v", s.Static)
	}

	// Any negative probe interval is the single "never" value.
	a, _ := ParseScheme("modbypass:probe=-7")
	b, _ := ParseScheme("modbypass:probe=-1")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("negative probe intervals not collapsed: %#v vs %#v", a, b)
	}

	// Drift windows are dead without a threshold, and at least 1 with one.
	off, _ := ParseScheme("pbs-ws")
	deadWin := PBS(metrics.ObjWS)
	deadWin.PBS.DriftWindows = 3
	if n := mustNormalize(deadWin); !reflect.DeepEqual(n, off) {
		t.Errorf("drift windows without threshold not dropped: %#v", n.PBS)
	}
	on, _ := ParseScheme("pbs-ws:drift=0.5")
	if on.PBS.DriftWindows != 1 {
		t.Errorf("enabled drift defaulted to %d windows, want 1", on.PBS.DriftWindows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                  // no kind
		"bogus",             // unknown kind
		"static:",           // colon with no args
		"dyncta:4",          // bare int outside static/besttlp
		"static:x",          // non-integer level
		"ccws:bogus=1",      // unknown knob
		"ccws:hivta=x",      // bad float
		"dyncta:himem=NaN",  // NaN has no JSON form
		"pbs-ws:drift=-Inf", // nor has infinity
		"dyncta:hyst=x",     // bad int
		"static:2,bypass=x", // bad mask char
		"pbs-ws:scaling=no", // unknown scaling
		"pbs-ws:sweep=1+x",  // bad sweep element
		"maxtlp:loutil=0.5", // maxtlp has no knobs
	}
	for _, s := range bad {
		if _, err := ParseScheme(s); err == nil {
			t.Errorf("ParseScheme(%q) accepted", s)
		}
	}
}

func TestValidate(t *testing.T) {
	valid := func(s SchemeSpec, n int) {
		t.Helper()
		if err := s.Validate(n); err != nil {
			t.Errorf("Validate(%s, %d): %v", s, n, err)
		}
	}
	invalid := func(s SchemeSpec, n int, frag string) {
		t.Helper()
		err := s.Validate(n)
		if err == nil {
			t.Errorf("Validate(%s, %d) passed, want error mentioning %q", s, n, frag)
			return
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Validate(%s, %d) = %v, want mention of %q", s, n, err, frag)
		}
	}

	valid(Static([]int{2, 8}, nil), 2)
	valid(Static([]int{2, 8}, nil), 0) // numApps deferred
	valid(DynCTA(), 0)
	valid(PBS(metrics.ObjWS), 3)

	invalid(SchemeSpec{Kind: "bogus"}, 2, "unknown scheme kind")
	invalid(SchemeSpec{Kind: KindStatic}, 2, "TLP combination")
	invalid(Static([]int{2, 8}, nil), 3, "2 TLP values for 3")
	invalid(Static([]int{0}, nil), 1, "out of range")
	invalid(Static([]int{config.MaxTLP + 1}, nil), 1, "out of range")
	invalid(Static([]int{2, 8}, []bool{true}), 2, "bypass mask")
	invalid(SchemeSpec{Kind: KindBestTLP}, 2, "unresolved")
	invalid(MaxTLP(), 0, "application count")
	invalid(SchemeSpec{Kind: KindDynCTA, DynCTA: &tlp.DynCTAKnobs{LowMemStall: 0.9}}, 2, "lomem")
	invalid(SchemeSpec{Kind: KindCCWS, CCWS: &tlp.CCWSKnobs{LowVTA: 0.5}}, 2, "lovta")
	invalid(SchemeSpec{Kind: KindModBypass, ModBypass: &tlp.ModBypassKnobs{BypassL1MR: 1.5}}, 2, "l1mr")
	invalid(SchemeSpec{Kind: KindPBSWS, PBS: &PBSSpec{SweepLevels: []int{99}}}, 2, "out of range")
	invalid(SchemeSpec{Kind: KindPBSWS, PBS: &PBSSpec{MeasureWindows: -1}}, 2, "measure_windows")
	invalid(SchemeSpec{Kind: KindPBSFI, PBS: &PBSSpec{Scaling: "group"}}, 2, "group_eb")

	group := PBS(metrics.ObjFI)
	group.PBS.Scaling = "group"
	group.PBS.GroupEB = []float64{1, 2}
	valid(group, 2)
	invalid(group, 3, "group_eb")
}

func TestManagerErrors(t *testing.T) {
	if _, err := (SchemeSpec{Kind: "bogus"}).Manager(2); err == nil {
		t.Error("unknown kind built a manager")
	}
	if _, err := (SchemeSpec{Kind: KindBestTLP}).Manager(2); err == nil {
		t.Error("unresolved besttlp built a manager")
	}
	if _, err := PBSManager(DynCTA(), 2); err == nil {
		t.Error("PBSManager accepted a non-pbs scheme")
	}
	if m, err := PBSManager(PBS(metrics.ObjWS), 2); err != nil || m == nil {
		t.Errorf("PBSManager(pbs-ws): %v", err)
	}
}

func TestFlagHelpAndKindsComplete(t *testing.T) {
	help := FlagHelp()
	for _, k := range Kinds() {
		if !strings.Contains(help, k) {
			t.Errorf("FlagHelp missing kind %q: %s", k, help)
		}
		if _, ok := Lookup(k); !ok {
			t.Errorf("registry missing kind %q", k)
		}
		// Every kind parses bare; every kind except besttlp (unresolved
		// until profiled) and maxtlp-with-unknown-count builds a manager.
		sp, err := ParseScheme(k)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", k, err)
			continue
		}
		if k == KindStatic || k == KindBestTLP {
			continue // need a combination to build
		}
		if _, err := sp.Manager(2); err != nil {
			t.Errorf("bare %q: Manager(2): %v", k, err)
		}
	}
}

func TestUnresolvedBestTLP(t *testing.T) {
	sp, err := ParseScheme("besttlp")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Unresolved() {
		t.Fatal("bare besttlp not unresolved")
	}
	if BestTLP([]int{2, 8}).Unresolved() {
		t.Fatal("resolved besttlp reported unresolved")
	}
}
