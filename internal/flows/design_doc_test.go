package flows

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignDocStageLists keeps DESIGN.md §3 honest: its stage-list
// table must show, under its CLI invocation, every sequence
// TestStageSequenceGolden pins — one per row of the flow table, the tile
// array's and the hierarchical parent's — and its pseudo-3D table the
// pseudoSpecs rows.
func TestDesignDocStageLists(t *testing.T) {
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	arrows := func(s string) string { return strings.ReplaceAll(s, " ", " → ") }
	for _, g := range goldenStages {
		row := fmt.Sprintf("| %s (`%s`) | %s | %s |", g.flow, g.cli, arrows(g.cold), arrows(g.warm))
		if !strings.Contains(doc, row) {
			t.Errorf("DESIGN.md lacks the stage-list row\n%s", row)
		}
	}
	for _, e := range flowTable {
		found := false
		for _, g := range goldenStages {
			found = found || g.flow == e.name && g.cli == "-flow "+e.key
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

// TestEngineCallSites holds DESIGN.md §3's claim: every list runs an
// engine through the one stage body the lists share, so each engine entry
// point is called from exactly one place in the package's non-test code.
// The tile generator too: only the tile table calls it (§17).
func TestEngineCallSites(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	entries := []string{"cts.Build(", "extract.ExtractOn(", "sta.Analyze(", "verify.Full(", "power.Analyze(", "route.RouteDesign(", "piton.Generate("}
	calls := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			calls[e] += strings.Count(string(b), e)
		}
	}
	for _, e := range entries {
		if calls[e] != 1 {
			t.Errorf("%s is called from %d places in non-test internal/flows, want 1", e, calls[e])
		}
	}
}

// TestTraceImportScope holds DESIGN.md §14's one instrumentation API:
// engines and flows instrument through obs.Span, so no non-test code
// imports the trace package except obs itself (the timeline is its
// sink), par (the team records its chunks on a trace.Set) and api.go
// (which exports the timeline).
func TestTraceImportScope(t *testing.T) {
	allowed := map[string]bool{"internal/obs": true, "internal/par": true, "api.go": true}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel("../..", path)
		rel = filepath.ToSlash(rel)
		switch {
		case err != nil:
			return err
		case d.IsDir() && (allowed[rel] || rel != "." && strings.HasPrefix(rel, ".")):
			return fs.SkipDir
		case d.IsDir() || allowed[rel] || !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go"):
			return nil
		}
		b, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(b), `"macro3d/internal/obs/trace"`) {
			t.Errorf("%s imports macro3d/internal/obs/trace; instrument through obs.Span", rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoroutineScope holds DESIGN.md §10's one parallel mechanism: no
// non-test code starts a goroutine except par's worker team and the
// observability server's listener, and none reads or sets GOMAXPROCS
// except par.Workers — so -j governs every fan-out. bench/, the ledger
// harness that pins GOMAXPROCS for its runs, is outside the program.
func TestGoroutineScope(t *testing.T) {
	goAllowed := map[string]bool{"internal/par/par.go": true, "internal/obs/http.go": true}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel("../..", path)
		rel = filepath.ToSlash(rel)
		switch {
		case err != nil:
			return err
		case d.IsDir() && (rel == "bench" || rel != "." && strings.HasPrefix(rel, ".")):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goAllowed[rel] {
					t.Errorf("%s starts a goroutine; fan out on a par.Team", rel)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "runtime" && n.Sel.Name == "GOMAXPROCS" && rel != "internal/par/par.go" {
					t.Errorf("%s uses runtime.GOMAXPROCS; size a fan-out with par.Workers", rel)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
