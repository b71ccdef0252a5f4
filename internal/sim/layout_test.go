package sim_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/tlp"
)

// layoutGolden maps each sim.SnapshotVersion to the hash of the snapshot
// layout it names.
const layoutGolden = "testdata/snapshot_layout.golden"

// TestSnapshotLayoutGolden pins the layout a checkpoint gob-encodes: the
// reflected type tree of sim.EngineState and of every registered kind's
// manager state. Gob leaves a field absent from the payload untouched, so
// a field added without a SnapshotVersion bump would restore as zero from
// an older checkpoint, with no error. This test fails instead.
func TestSnapshotLayoutGolden(t *testing.T) {
	layout := snapshotLayout(t)
	h := fnv.New64a()
	h.Write([]byte(layout))
	got := fmt.Sprintf("%016x", h.Sum64())

	raw, err := os.ReadFile(layoutGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", layoutGolden, err)
	}
	v := strconv.Itoa(sim.SnapshotVersion)
	want, ok := golden[v]
	switch {
	case !ok:
		t.Fatalf("%s has no entry for SnapshotVersion %s: add \"%s\": %q", layoutGolden, v, v, got)
	case want != got:
		t.Logf("layout now:\n%s", layout)
		t.Fatalf("snapshot layout hash %s, golden %s at SnapshotVersion %s: the encoded state changed shape, "+
			"so bump sim.SnapshotVersion and add \"%d\": %q to %s", got, want, v, sim.SnapshotVersion+1, got, layoutGolden)
	}
}

// snapshotLayout renders the type tree of EngineState, then of each
// distinct manager state, one per line.
func snapshotLayout(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "EngineState %s\n", typeTree(reflect.TypeOf(sim.EngineState{}), nil))
	seen := map[reflect.Type]bool{}
	for _, kind := range spec.Kinds() {
		m := kindManager(t, kind)
		mt := reflect.TypeOf(m)
		if seen[mt] {
			continue
		}
		seen[mt] = true
		states := managerStates(mt)
		if sb, err := m.(tlp.Stater).StateBytes(); err != nil {
			t.Fatalf("%s: StateBytes: %v", kind, err)
		} else if len(sb) > 0 && len(states) == 0 {
			t.Fatalf("%s (%v) encodes state but keeps no st field this test can reach", kind, mt)
		}
		for _, st := range states {
			fmt.Fprintf(&b, "%v %s\n", mt, st)
		}
	}
	return b.String()
}

// kindManager builds a two-application manager of the kind, from its bare
// name or, for kinds that need a combination, a 1,1 one.
func kindManager(t *testing.T, kind string) tlp.Manager {
	t.Helper()
	for _, in := range []string{kind, kind + ":1,1"} {
		if sp, err := spec.ParseScheme(in); err == nil {
			if m, err := sp.Manager(2); err == nil {
				return m
			}
		}
	}
	t.Fatalf("kind %s builds no manager from %q or %q", kind, kind, kind+":1,1")
	return nil
}

// managerStates renders the type tree of a manager's unexported st field
// and, recursively, of every manager it wraps (ModBypass wraps a DynCTA
// and encodes both states).
func managerStates(mt reflect.Type) []string {
	for mt.Kind() == reflect.Pointer {
		mt = mt.Elem()
	}
	if mt.Kind() != reflect.Struct {
		return nil
	}
	var out []string
	if f, ok := mt.FieldByName("st"); ok {
		out = append(out, typeTree(f.Type, nil))
	}
	for i := 0; i < mt.NumField(); i++ {
		if f := mt.Field(i); !f.Anonymous && f.Name != "st" {
			out = append(out, managerStates(f.Type)...)
		}
	}
	return out
}

// typeTree renders t as gob lays it out: a struct as its exported
// fields in order, each with its name and type tree; named scalar types
// as their kind. A type already on the path renders as its name.
func typeTree(t reflect.Type, path []reflect.Type) string {
	for _, p := range path {
		if p == t {
			return t.String()
		}
	}
	path = append(path, t)
	switch t.Kind() {
	case reflect.Pointer:
		return "*" + typeTree(t.Elem(), path)
	case reflect.Slice:
		return "[]" + typeTree(t.Elem(), path)
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), typeTree(t.Elem(), path))
	case reflect.Map:
		return fmt.Sprintf("map[%s]%s", typeTree(t.Key(), path), typeTree(t.Elem(), path))
	case reflect.Struct:
		var fields []string
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fields = append(fields, f.Name+" "+typeTree(f.Type, path))
			}
		}
		return "struct{" + strings.Join(fields, "; ") + "}"
	default:
		return t.Kind().String()
	}
}
