package harness_test

import (
	"testing"

	. "repro/internal/paper"
)

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Experiments()) {
		t.Fatalf("IDs() returned %d ids for %d experiments", len(ids), len(Experiments()))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
		e, ok := Lookup(id)
		if !ok {
			t.Errorf("Lookup(%q) missed a registered id", id)
			continue
		}
		if e.ID != id || e.Run == nil || e.Title == "" {
			t.Errorf("registry entry %q incomplete: %+v", id, e)
		}
	}
	if ids[0] != "fig1" {
		t.Errorf("registry order changed: first id %q, want fig1 (paper order)", ids[0])
	}
}

func TestLookupUnknownID(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup resolved an unregistered id")
	}
}
