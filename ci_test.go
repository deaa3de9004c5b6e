package repro

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakeCIMatchesWorkflow keeps `make ci` what CI runs: the prerequisites
// of the Makefile's ci target are the workflow's `run: make <target>` steps,
// the same targets in the same order.
func TestMakeCIMatchesWorkflow(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, m := range regexp.MustCompile(`(?m)^\s*run:\s*make\s+(\S+)\s*$`).FindAllSubmatch(workflow, -1) {
		steps = append(steps, string(m[1]))
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ci := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(makefile)
	if ci == nil {
		t.Fatal("the Makefile has no ci target")
	}
	prereqs := strings.Fields(string(ci[1]))
	if len(steps) == 0 || !slices.Equal(steps, prereqs) {
		t.Errorf("ci.yml runs make %v\nthe Makefile's ci runs %v", steps, prereqs)
	}
}
