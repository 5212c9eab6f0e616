package lefdef

import (
	"strings"
	"testing"

	"macro3d/internal/cell"
)

// These tests pin down the parser's failure behaviour: malformed
// streams must come back as descriptive errors carrying source line
// numbers — never as panics or silent truncation.

func mustErr(t *testing.T, err error, wants ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corrupt input accepted (wanted error naming %v)", wants)
	}
	for _, w := range wants {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not mention %q", err, w)
		}
	}
}

func TestParseLEFTruncatedMacro(t *testing.T) {
	lef := "MACRO BROKEN\n  CLASS CORE ;\n" // stream ends mid-block
	_, err := ParseLEF(strings.NewReader(lef))
	mustErr(t, err, "unexpected EOF in MACRO BROKEN", "line 2")
}

func TestParseLEFDuplicateMacro(t *testing.T) {
	lef := "MACRO A\n  SIZE 1 BY 1 ;\nEND A\nMACRO A\n  SIZE 2 BY 2 ;\nEND A\n"
	_, err := ParseLEF(strings.NewReader(lef))
	mustErr(t, err, `duplicate MACRO "A"`, "line")
}

func TestParseLEFLayerMismatchedStack(t *testing.T) {
	// Two routing layers with no cut layer between them: the parsed
	// stack must fail BEOL validation (N layers need N-1 vias), not
	// come back as a half-formed technology.
	lef := `LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.1 ;
  WIDTH 0.05 ;
END M1
LAYER M2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  PITCH 0.1 ;
  WIDTH 0.05 ;
END M2
`
	_, err := ParseLEF(strings.NewReader(lef))
	mustErr(t, err, "parsed stack invalid", "2 layers but 0 vias")
}

func TestParseLEFBadNumberHasLine(t *testing.T) {
	lef := "LAYER M1\n  TYPE ROUTING ;\n  PITCH oops ;\n"
	_, err := ParseLEF(strings.NewReader(lef))
	mustErr(t, err, `expected number, got "oops"`, "line 3")
}

func TestParseDEFTruncatedComponents(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	def := "DESIGN x ;\nCOMPONENTS 2 ;\n  - u1 INV_X2 + PLACED ( 0 0 ) N ;\n"
	_, err := ParseDEF(strings.NewReader(def), lib)
	mustErr(t, err, "unexpected EOF in COMPONENTS", "line 3")
}

func TestParseDEFBadNumberHasLine(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	def := "DESIGN x ;\n" +
		"COMPONENTS 1 ;\n" +
		"  - u1 INV_X2 + PLACED ( zzz 0 ) N ;\n" +
		"END COMPONENTS\nEND DESIGN\n"
	_, err := ParseDEF(strings.NewReader(def), lib)
	mustErr(t, err, `expected number, got "zzz"`, "line 3")
}

func TestParseDEFUnknownPinRef(t *testing.T) {
	// A net naming a PIN that was never declared used to parse as an
	// empty-success; it must be a hard error.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	def := "DESIGN x ;\n" +
		"NETS 1 ;\n" +
		"  - n1 ( PIN ghost ) ;\n" +
		"END NETS\nEND DESIGN\n"
	_, err := ParseDEF(strings.NewReader(def), lib)
	mustErr(t, err, "net n1 references unknown pin ghost", "line 3")
}

// unknownPinDEF names pin Z of an inverter, which has A and Y.
const unknownPinDEF = "DESIGN x ;\n" +
	"COMPONENTS 2 ;\n" +
	"  - u1 INV_X2 + PLACED ( 0 0 ) N ;\n" +
	"  - u2 INV_X2 + PLACED ( 5 0 ) N ;\n" +
	"END COMPONENTS\n" +
	"NETS 1 ;\n" +
	"  - n1 ( u1 Y ) ( u2 Z ) ;\n" +
	"END NETS\nEND DESIGN\n"

func TestParseDEFUnknownInstancePin(t *testing.T) {
	// A net naming a pin the component's master lacks is resolved to a
	// pin position as it is read: an error there, not a panic later.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	_, err := ParseDEF(strings.NewReader(unknownPinDEF), lib)
	mustErr(t, err, `net n1: netlist: instance "u2" has no pin "Z" on INV_X2`, "line 7")
}

func TestParseDEFDuplicateNames(t *testing.T) {
	// Duplicate components/pins/nets hit panicking netlist builders if
	// unguarded; the parser must refuse them with an error instead.
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	cases := []struct {
		name, def, want string
	}{
		{"component", "DESIGN x ;\nCOMPONENTS 2 ;\n" +
			"  - u1 INV_X2 + PLACED ( 0 0 ) N ;\n" +
			"  - u1 INV_X2 + PLACED ( 5 0 ) N ;\n" +
			"END COMPONENTS\nEND DESIGN\n", `duplicate component "u1"`},
		{"pin", "DESIGN x ;\nPINS 2 ;\n" +
			"  - clk + DIRECTION INPUT + LAYER M6 ( 0 0 ) ;\n" +
			"  - clk + DIRECTION INPUT + LAYER M6 ( 0 0 ) ;\n" +
			"END PINS\nEND DESIGN\n", `duplicate pin "clk"`},
		{"net", "DESIGN x ;\nCOMPONENTS 1 ;\n" +
			"  - u1 INV_X2 + PLACED ( 0 0 ) N ;\n" +
			"END COMPONENTS\nNETS 2 ;\n" +
			"  - n1 ( u1 Y ) ( u1 A ) ;\n" +
			"  - n1 ( u1 A ) ;\n" +
			"END NETS\nEND DESIGN\n", `duplicate net "n1"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on duplicate %s: %v", tc.name, r)
				}
			}()
			_, err := ParseDEF(strings.NewReader(tc.def), lib)
			mustErr(t, err, tc.want, "line")
		})
	}
}

// TestParseLEFSwallowedErrors pins the once-swallowed tokenizer and
// number-parse failures inside LAYER/PIN/OBS bodies: each malformed
// stream must surface a line-numbered error. Several of these inputs
// made the old parser hang (EOF-unchecked token loops) or silently
// accept a zeroed value.
func TestParseLEFSwallowedErrors(t *testing.T) {
	cases := []struct {
		name, lef string
		wants     []string
	}{
		{"truncated-after-TYPE", "LAYER M1\n  TYPE",
			[]string{"unexpected EOF after TYPE in LAYER M1", "line 2"}},
		{"truncated-TYPE-tail", "LAYER M1\n  TYPE ROUTING",
			[]string{"unexpected EOF in TYPE of LAYER M1", "line 2"}},
		{"truncated-CLASS", "MACRO A\n  CLASS CORE",
			[]string{"unexpected EOF in CLASS of MACRO A", "line 2"}},
		{"pin-property-bad-number", "MACRO A\n  SIZE 1 BY 1 ;\n  PIN X\n" +
			"    DIRECTION INPUT ;\n    PROPERTY arc setup oops ;\n  END X\nEND A\n",
			[]string{`bad number "oops" for setup in PIN X PROPERTY`, "line 5"}},
		{"truncated-PORT", "MACRO A\n  SIZE 1 BY 1 ;\n  PIN X\n    PORT",
			[]string{"unexpected EOF in PORT of PIN X", "line 4"}},
		{"truncated-PORT-LAYER", "MACRO A\n  SIZE 1 BY 1 ;\n  PIN X\n    PORT\n      LAYER",
			[]string{"unexpected EOF after LAYER in PORT of PIN X", "line 5"}},
		{"truncated-OBS-LAYER", "MACRO A\n  SIZE 1 BY 1 ;\n  OBS\n    LAYER",
			[]string{"unexpected EOF after LAYER in OBS", "line 4"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseLEF(strings.NewReader(tc.lef))
			mustErr(t, err, tc.wants...)
		})
	}
}

// TestParseDEFTruncatedPinLayer pins the DEF-side swallowed read: a pin
// statement ending right after LAYER must name the pin and the line.
func TestParseDEFTruncatedPinLayer(t *testing.T) {
	lib := cell.NewStdLib28(cell.DefaultLibOptions())
	def := "DESIGN x ;\nPINS 1 ;\n  - p1 + DIRECTION INPUT + LAYER"
	_, err := ParseDEF(strings.NewReader(def), lib)
	mustErr(t, err, "unexpected EOF after LAYER in pin p1", "line 3")
}

func TestTokenizerLineTracking(t *testing.T) {
	tk := newTokenizer(strings.NewReader("A B\n# only a comment\nC\n"))
	for _, want := range []struct {
		tok  string
		line int
	}{{"A", 1}, {"B", 1}, {"C", 3}} {
		w, ok := tk.next()
		if !ok || w != want.tok {
			t.Fatalf("token = %q, %v (want %q)", w, ok, want.tok)
		}
		if tk.line != want.line {
			t.Fatalf("token %q at line %d, want %d", w, tk.line, want.line)
		}
	}
}
