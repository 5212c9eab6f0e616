package flows

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestDesignDocStageLists keeps DESIGN.md §3 honest: its stage-list
// table must show, for every row of the flow table, the sequence
// TestStageSequenceGolden pins, and its pseudo-3D table the pseudoSpecs
// rows.
func TestDesignDocStageLists(t *testing.T) {
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	arrows := func(s string) string { return strings.ReplaceAll(s, " ", " → ") }
	for _, e := range flowTable {
		found := false
		for _, g := range goldenStages {
			if g.flow != e.name {
				continue
			}
			found = true
			row := fmt.Sprintf("| %s (`%s`) | %s | %s |", e.name, e.key, arrows(g.cold), arrows(g.warm))
			if !strings.Contains(doc, row) {
				t.Errorf("DESIGN.md lacks the stage-list row\n%s", row)
			}
		}
		if !found {
			t.Errorf("flow %s (%s) has no golden stage sequence", e.name, e.key)
		}
	}
	for flow, spec := range pseudoSpecs {
		budget := fmt.Sprintf("%d iterations × %d moves", spec.budget.MaxIters, spec.budget.MaxMovesPerIter)
		if spec.budget.Frozen {
			budget = "frozen"
		}
		row := fmt.Sprintf("| %s | %v | Seed+%d | ×%g | %.4g | %s |", flow, spec.style, spec.seedOff, spec.area, spec.s, budget)
		if !strings.Contains(doc, row) {
			t.Errorf("DESIGN.md lacks the pseudo-3D spec row starting\n%s", row)
		}
	}
}
