package macro3d_test

import (
	"os"
	"regexp"
	"testing"
)

// TestDocsNameOnlyMakeTargets: every `make <target>` the README and the
// verification notes name — inline, or at the start of a line in a code
// block — is a target of the Makefile, so a deleted target cannot stay
// documented. DESIGN.md is not read: its decision records name deleted
// targets on purpose.
func TestDocsNameOnlyMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):([^=]|$)`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	if !targets["check"] || !targets["bench"] {
		t.Fatalf("Makefile targets read as %v, which lacks check or bench", targets)
	}
	named := regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)")
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, m := range named.FindAllSubmatch(b, -1) {
			n++
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which is not a Makefile target", doc, m[1])
			}
		}
		if n == 0 {
			t.Errorf("%s names no make target; the pattern no longer reads it", doc)
		}
	}
}
