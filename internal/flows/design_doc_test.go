package flows

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDesignDocStageLists keeps DESIGN.md §3 honest: its stage-list
// table must show, under its CLI invocation, every sequence
// TestStageSequenceGolden pins — one per row of the flow table, a
// hardening run's, the tile array's and the hierarchical parent's — and
// its pseudo-3D table the pseudoSpecs rows.
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
	entries := []string{"cts.Build(", "extract.ExtractOn(", "extract.Caps(", "sta.Analyze(", "verify.Full(", "power.Analyze(", "route.RouteDesign(", "piton.Generate("}
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
	goAllowed := map[string]bool{"internal/par/par.go": true, "internal/obs/obshttp/obshttp.go": true}
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

// TestEveryOptionHasACaller holds DESIGN.md §3's "constants that were
// options": every exported field of an exported Options or Config struct
// under internal/ is set somewhere in the repository's non-test code —
// bench/, cmd/ and examples/ included — by a keyed composite-literal
// entry or a selector assignment, or it is on the keep list below with
// its reason. A package assigning to an option value it was handed as a
// receiver or parameter (its withDefaults, or a default filled in at an
// entry point) is no caller. A field nothing sets always takes its
// default: it is a constant of its package, not an option. For the same
// reason no non-test code reads the environment (os.Getenv,
// os.LookupEnv): an environment variable is an option no caller sets.
//
// The walk is syntactic. A literal's type is resolved through the file's
// imports and the repository's type aliases; a literal whose type is
// elided sets nothing. An assignment's target is resolved when it is a
// receiver, a parameter or a variable declared with its type or a
// literal; any other target sets every field of that name.
func TestEveryOptionHasACaller(t *testing.T) {
	keep := map[string]string{
		"route.Options.GCellPitch":  "tests shape small routing fixtures with it",
		"route.Options.MaxIters":    "tests shape small routing fixtures with it",
		"place.Options.BinPitch":    "tests shape small placement fixtures with it",
		"place.Options.Iters":       "tests shape small placement fixtures with it",
		"cts.Options.MaxLeafSinks":  "tests shape small clock-tree fixtures with it",
		"cts.Options.RepeaterSpan":  "tests shape small clock-tree fixtures with it",
		"cts.Options.NoSkewBalance": "tests compare the unbalanced tree with it",
	}
	type typeKey struct{ pkg, name string }
	files := repoFiles(t)
	for _, fl := range files {
		ast.Inspect(fl.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv") {
				if x, ok := sel.X.(*ast.Ident); ok && fl.imports[x.Name] == "os" {
					t.Errorf("%s calls os.%s: an environment variable is an option no caller sets", fl.rel, sel.Sel.Name)
				}
			}
			return true
		})
	}

	// The option structs, their fields (each with the name the test
	// reports it by), and every type alias in the repository.
	type alias struct {
		fl  repoFile
		typ ast.Expr
	}
	fields := map[typeKey]map[string]string{}
	aliases := map[typeKey]alias{}
	for _, fl := range files {
		for _, decl := range fl.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				k := typeKey{fl.path, ts.Name.Name}
				if ts.Assign.IsValid() {
					aliases[k] = alias{fl, ts.Type}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasPrefix(fl.path, "macro3d/internal/") || ts.Name.Name != "Options" && ts.Name.Name != "Config" {
					continue
				}
				fields[k] = map[string]string{}
				for _, fd := range st.Fields.List {
					for _, n := range fd.Names {
						if n.IsExported() {
							fields[k][n.Name] = fl.ast.Name.Name + "." + ts.Name.Name + "." + n.Name
						}
					}
				}
			}
		}
	}
	// resolve names the type a type expression of fl denotes.
	var resolve func(fl repoFile, e ast.Expr) (typeKey, bool)
	resolve = func(fl repoFile, e ast.Expr) (typeKey, bool) {
		var k typeKey
		switch e := e.(type) {
		case *ast.StarExpr:
			return resolve(fl, e.X)
		case *ast.ParenExpr:
			return resolve(fl, e.X)
		case *ast.Ident:
			k = typeKey{fl.path, e.Name}
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			if !ok || fl.imports[x.Name] == "" {
				return k, false
			}
			k = typeKey{fl.imports[x.Name], e.Sel.Name}
		default:
			return k, false
		}
		if a, ok := aliases[k]; ok {
			return resolve(a.fl, a.typ)
		}
		return k, true
	}

	set := map[string]bool{}
	// assign marks the field an assignment to lhs sets.
	assign := func(fl repoFile, lhs ast.Expr, vars map[string]ast.Expr, params map[string]bool) {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if id, ok := sel.X.(*ast.Ident); ok && vars[id.Name] != nil {
			if k, ok := resolve(fl, vars[id.Name]); ok {
				if q, ok := fields[k][sel.Sel.Name]; ok && !(params[id.Name] && k.pkg == fl.path) {
					set[q] = true
				}
				return
			}
		}
		for _, fs := range fields {
			if q, ok := fs[sel.Sel.Name]; ok {
				set[q] = true
			}
		}
	}
	for _, fl := range files {
		for _, decl := range fl.ast.Decls {
			// vars holds the declared type of a receiver, parameter or
			// local variable, by name, for the function being walked;
			// params names its receiver and parameters.
			vars, params := map[string]ast.Expr{}, map[string]bool{}
			if fn, ok := decl.(*ast.FuncDecl); ok {
				for _, list := range []*ast.FieldList{fn.Recv, fn.Type.Params} {
					if list == nil {
						continue
					}
					for _, fd := range list.List {
						for _, n := range fd.Names {
							vars[n.Name], params[n.Name] = fd.Type, true
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					for _, id := range n.Names {
						if n.Type != nil {
							vars[id.Name], params[id.Name] = n.Type, false
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if n.Tok != token.DEFINE || !ok || len(n.Rhs) != len(n.Lhs) {
							continue
						}
						rhs := n.Rhs[i]
						if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
							rhs = u.X
						}
						params[id.Name] = false
						if lit, ok := rhs.(*ast.CompositeLit); ok && lit.Type != nil {
							vars[id.Name] = lit.Type
						} else {
							delete(vars, id.Name)
						}
					}
					if n.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range n.Lhs {
						assign(fl, lhs, vars, params)
					}
				case *ast.IncDecStmt:
					assign(fl, n.X, vars, params)
				case *ast.CompositeLit:
					k, ok := resolve(fl, n.Type)
					if !ok || fields[k] == nil {
						return true
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							set[fields[k][kv.Key.(*ast.Ident).Name]] = true
						}
					}
				}
				return true
			})
		}
	}

	var missing []string
	for _, fs := range fields {
		for _, q := range fs {
			_, kept := keep[q]
			switch {
			case set[q] && kept:
				t.Errorf("%s is on the keep list, but non-test code sets it: drop its entry", q)
			case !set[q] && !kept:
				missing = append(missing, q)
			}
		}
	}
	for q := range keep {
		found := false
		for _, fs := range fields {
			for _, f := range fs {
				found = found || f == q
			}
		}
		if !found {
			t.Errorf("keep list names %s, which is no option field", q)
		}
	}
	slices.Sort(missing)
	for _, q := range missing {
		t.Errorf("%s: no non-test code sets it, so it always takes its default; make it a constant of its package", q)
	}
}

// repoFile is one parsed non-test Go file of the repository.
type repoFile struct {
	rel     string // slash-separated path from the repository root
	path    string // import path of the file's package
	ast     *ast.File
	imports map[string]string // import path by the name the file uses
}

// repoFiles parses every non-test Go file of the repository — bench/,
// cmd/ and examples/ included, testdata/ and dot-directories not.
func repoFiles(t *testing.T) []repoFile {
	t.Helper()
	var files []repoFile
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel("../..", path)
		rel = filepath.ToSlash(rel)
		switch {
		case err != nil:
			return err
		case d.IsDir() && (rel == "testdata" || strings.HasSuffix(rel, "/testdata") || rel != "." && strings.HasPrefix(rel, ".")):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fl := repoFile{rel: rel, path: strings.TrimSuffix("macro3d/"+filepath.ToSlash(filepath.Dir(rel)), "/."), ast: f, imports: map[string]string{}}
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			fl.imports[name] = p
		}
		files = append(files, fl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryFuncHasACaller holds DESIGN.md §3's least-code aim at the
// level of declarations: every top-level function and method declared
// in non-test code under internal/ is named somewhere in the
// repository's non-test code — bench/, cmd/ and examples/ included —
// outside its own declaration, or it is on the keep list below with its
// reason. Code only tests call is code the program never runs.
//
// The match is by name: a dead declaration whose name another one
// shares, or that a call of another package's function of that name
// mentions, goes unflagged, but live code is never flagged. Methods
// that satisfy a standard interface are exempt, as are init and main.
// So geom.HPWL, the oracle TestNetHPWL checks Net.HPWL against, needs
// no keep-list entry: Net.HPWL's callers name it.
func TestEveryFuncHasACaller(t *testing.T) {
	keep := map[string]string{
		"place.CheckLegal":                           "the legality oracle the placement tests hold every result to",
		"geom.(*RNG).Range":                          "tests draw fixtures from the flows' own generator with it",
		"netlist.(*Instance).PinLoc":                 "tests observe a pin's position by name through it",
		"netlist.(*Design).OwnNames":                 "tests observe a composed design's own records through it",
		"place.(*FreeSpace).Refused":                 "tests observe the free-space map's refusals through it",
		"floorplan.(*PartialBlockageMap).FractionAt": "tests observe the partial-blockage quantization through it",
		"trace.NormalizeChrome":                      "the trace determinism tests compare exports through it",
	}
	// keepPkg names the packages whose every function is kept.
	keepPkg := map[string]string{
		"faults": "the fault-injection harness, driven by its own tests",
	}
	exempt := map[string]bool{
		"init": true, "main": true,
		"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
		"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
		"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
		"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	}
	files := repoFiles(t)
	// named counts each identifier of non-test code by name, the names of
	// function declarations themselves aside.
	named := map[string]int{}
	for _, fl := range files {
		decls := map[*ast.Ident]bool{}
		for _, decl := range fl.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				decls[fn.Name] = true
			}
		}
		ast.Inspect(fl.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				named[id.Name]++
			}
			return true
		})
	}
	// recvName renders a method's receiver type as (*T) or T.
	var recvName func(e ast.Expr) string
	recvName = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.StarExpr:
			return "(*" + recvName(e.X) + ")"
		case *ast.IndexExpr:
			return recvName(e.X)
		case *ast.IndexListExpr:
			return recvName(e.X)
		case *ast.Ident:
			return e.Name
		}
		return "?"
	}
	declared := map[string]bool{}
	var missing []string
	for _, fl := range files {
		if !strings.HasPrefix(fl.rel, "internal/") {
			continue
		}
		pkg := fl.ast.Name.Name
		for _, decl := range fl.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || exempt[fn.Name.Name] || fn.Name.Name == "_" {
				continue
			}
			q := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				q = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[q] = true
			own := 0
			ast.Inspect(fn, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != fn.Name && id.Name == fn.Name.Name {
					own++
				}
				return true
			})
			_, kept := keep[q]
			_, keptPkg := keepPkg[pkg]
			switch called := named[fn.Name.Name] > own; {
			case called && kept:
				t.Errorf("%s is on the keep list, but non-test code names it: drop its entry", q)
			case !called && !kept && !keptPkg:
				missing = append(missing, q)
			}
		}
	}
	for q := range keep {
		if !declared[q] {
			t.Errorf("keep list names %s, which no non-test file under internal/ declares", q)
		}
	}
	slices.Sort(missing)
	for _, q := range missing {
		t.Errorf("%s: no non-test code names it; delete it, or move it into the test that needs it", q)
	}
}
