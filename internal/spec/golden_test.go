package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// grammarGolden is the byte-for-byte rendering of every grammarCorpus
// entry. The round-trip tests only check fixed points, so a rendering
// change applied the same way in both directions (printing knobs that sit
// at their defaults, renaming a JSON field) would still pass them; this
// file catches it.
const grammarGolden = "testdata/grammar.golden"

// renderGrammar renders one corpus entry: String(), the normalized JSON,
// the canonical(2) JSON (what cache keys hash) and, where the entry
// builds for two applications, the manager's report name.
func renderGrammar(t *testing.T, in string) string {
	t.Helper()
	sp, err := ParseScheme(in)
	if err != nil {
		t.Fatalf("ParseScheme(%q): %v", in, err)
	}
	norm, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("%q: marshal: %v", in, err)
	}
	canon, err := json.Marshal(sp.canonical(2))
	if err != nil {
		t.Fatalf("%q: marshal canonical: %v", in, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n  string    %s\n  json      %s\n  canonical %s\n", in, sp.String(), norm, canon)
	if m, err := sp.Manager(2); err == nil {
		fmt.Fprintf(&b, "  manager   %s\n", m.Name())
	}
	return b.String()
}

// TestGrammarGolden pins the rendering of the whole grammar corpus. A
// deliberate change to the grammar, the JSON encoding or a report name
// regenerates the file from the failure output: each differing entry is
// printed in full.
func TestGrammarGolden(t *testing.T) {
	raw, err := os.ReadFile(grammarGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, block := range strings.SplitAfter(string(raw), "\n\n") {
		block = strings.TrimSuffix(block, "\n")
		if block == "" {
			continue
		}
		in, _, _ := strings.Cut(block, "\n")
		want[in] = block
	}
	corpus := grammarCorpus()
	if len(want) != len(corpus) {
		t.Errorf("%s holds %d entries, corpus has %d", grammarGolden, len(want), len(corpus))
	}
	for _, in := range corpus {
		if got := renderGrammar(t, in); got != want[in] {
			t.Errorf("%s: rendering moved\n got:\n%s\nwant:\n%s", in, got, want[in])
		}
	}
}
