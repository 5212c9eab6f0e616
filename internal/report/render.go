package report

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
)

// tableRow is a metric of a recorded experiment's table: its label, the
// precision ours print at, its value in a cell, and the paper's values as
// the paper prints them, one per column (none where it reports none). In
// a table of one cell a column, a delta row follows its values with their
// change against the first column; a table of pairs prints every row as
// base→variant (Δ).
type tableRow struct {
	label, verb string
	v           func(c *tableCell) float64
	delta       bool
	paper       []string
}

// with is the row with the paper's values, and with deltas in a table of
// one cell a column.
func (r tableRow) with(delta bool, paper ...string) tableRow {
	r.delta, r.paper = delta, paper
	return r
}

// The rows several tables print. overflowRow is in every table beside
// the PPA: the gcell-layers the final routing leaves over capacity, so
// the reader sees which columns do not route clean. The paper reports
// none.
var (
	overflowRow = tableRow{label: "route overflow [gcell-layers]", verb: "%.0f", v: func(c *tableCell) float64 { return float64(c.Overflow) }}
	fclkRow     = tableRow{label: "f_clk [MHz]", verb: "%.0f", v: func(c *tableCell) float64 { return c.FclkMHz }}
	emeanRow    = tableRow{label: "E_mean [fJ/cycle]", verb: "%.1f", v: func(c *tableCell) float64 { return c.EmeanFJ }}
	areaRow     = tableRow{label: "A_footprint [mm²]", verb: "%.2f", v: func(c *tableCell) float64 { return c.FootprintMM2 }}
	bumpsRow    = tableRow{label: "F2F bumps", verb: "%.0f", v: func(c *tableCell) float64 { return float64(c.F2FBumps) }}
	powerRow    = tableRow{label: "power [µW]", verb: "%.1f", v: func(c *tableCell) float64 { return c.PowerUW }}
	leakageRow  = tableRow{label: "leakage [µW]", verb: "%.1f", v: func(c *tableCell) float64 { return c.LeakageUW }}
)

// paperTable is one recorded experiment's table: its header, the cells a
// column holds — one, or a (base, variant) pair — and its rows.
type paperTable struct {
	head []string
	per  int
	rows []tableRow
}

// paperTables is every recorded experiment's table by experiment name,
// and the one place the paper's published values are kept.
var paperTables = map[string]paperTable{
	"table1": {head: []string{"metric (Δ vs 2D)", "2D", "MoL S2D", "BF S2D", "Macro-3D"}, per: 1, rows: []tableRow{
		fclkRow.with(true, "390", "227 (−41.8 %)", "260 (−33.3 %)", "470 (+20.5 %)"),
		emeanRow.with(true, "116.7", "123.1 (+5 %)", "112.9 (−3 %)", "117.6 (+1 %)"),
		areaRow.with(false, "1.20", "0.60", "0.60", "0.60"),
		bumpsRow.with(false, "0", "5405", "8703", "4740"),
		overflowRow,
	}},
	"table2": {head: []string{"metric (2D→Macro-3D)", "small", "large"}, per: 2, rows: []tableRow{
		fclkRow.with(false, "390→470 (+20.5 %)", "328→421 (+28.2 %)"),
		emeanRow.with(false, "+0.8 %", "−0.9 %"),
		areaRow.with(false, "−50.0 %", "−50.1 %"),
		{"A_logic-cells [mm²]", "%.3f", func(c *tableCell) float64 { return c.LogicCellAreaMM2 }, false, []string{"+1.6 %", "+1.2 %"}},
		{"total wirelength [m]", "%.2f", func(c *tableCell) float64 { return c.WLm }, false, []string{"6.3→5.6 (−11.8 %)", "12.2→10.4 (−14.8 %)"}},
		bumpsRow.with(false, "0→4740", "0→1215"),
		{"C_pin,total [nF]", "%.3f", func(c *tableCell) float64 { return c.CpinNF }, false, []string{"+5.6 %", "+7.4 %"}},
		{"C_wire,total [nF]", "%.3f", func(c *tableCell) float64 { return c.CwireNF }, false, []string{"−7.2 %", "−10.2 %"}},
		{"max clk-tree depth", "%.0f", func(c *tableCell) float64 { return float64(c.ClkDepth) }, false, []string{"13→14 (+7.7 %)", "20→16 (−20.0 %)"}},
		{"crit-path WL [mm]", "%.2f", func(c *tableCell) float64 { return c.CritPathWLmm }, false, []string{"−63.0 %", "−32.0 %"}},
		overflowRow,
	}},
	"table3": {head: []string{"metric (M6–M6→M6–M4)", "small", "large"}, per: 2, rows: []tableRow{
		fclkRow.with(false, "−1.8 %", "+0.5 %"),
		emeanRow.with(false, "+1.3 %", "−1.0 %"),
		{"A_metal [mm²]", "%.1f", func(c *tableCell) float64 { return c.MetalAreaMM2 }, false, []string{"−16.7 %", "−16.7 %"}},
		bumpsRow.with(false, "−18.4 %", "−24.1 %"),
		overflowRow,
	}},
	"isoperf": {head: []string{"metric (2D→Macro-3D at 2D's f_clk)", "small", "large"}, per: 2, rows: []tableRow{
		{"min period [ps]", "%.1f", func(c *tableCell) float64 { return c.MinPeriodPs }, false, nil},
		powerRow.with(false, "−3.2 %", "−3.8 %"),
		leakageRow,
		overflowRow,
	}},
	"sweepblockage": {head: append([]string{"metric (Δ vs 2D)", "2D"}, labels("MoL S2D %g µm", blockageResolutions)...), per: 1, rows: []tableRow{
		fclkRow.with(true),
		bumpsRow,
		overflowRow,
	}},
	"sweeppitch": {head: append([]string{"metric (Macro-3D; F2F pitch)"}, labels("%g µm", f2fPitches)...), per: 1, rows: []tableRow{
		fclkRow,
		bumpsRow,
		overflowRow,
	}},
	"heterotech": {head: append([]string{"metric (Macro-3D; macro-die node, Δ vs same-node)"}, labels("%s", heteroPoints)...), per: 1, rows: []tableRow{
		fclkRow.with(true),
		emeanRow.with(true),
		powerRow.with(true),
		leakageRow.with(true),
		overflowRow,
	}},
	"macropins": {head: append([]string{"metric (Macro-3D; data width)"}, labels("%d bit", dataWidths)...), per: 1, rows: []tableRow{
		{"macro pins", "%.0f", func(c *tableCell) float64 { return float64(c.MacroPins) }, false, nil},
		bumpsRow,
		{"F2F bumps per macro pin", "%.2f", func(c *tableCell) float64 { return float64(c.F2FBumps) / float64(c.MacroPins) }, false, nil},
		fclkRow,
		overflowRow,
	}},
}

// labels is a column label per knob value, printed with verb.
func labels[T any](verb string, knobs []T) []string {
	out := make([]string, len(knobs))
	for i, k := range knobs {
		out[i] = fmt.Sprintf(verb, k)
	}
	return out
}

// cells is the number of cells the table renders.
func (t paperTable) cells() int { return t.per * (len(t.head) - 1) }

// render writes the table as markdown from its cells in cell order, nil
// where a cell did not run ("—"): each row of ours, then the paper's
// where it published one.
func (t paperTable) render(cs []*tableCell) string {
	rows := [][]string{t.head}
	for _, r := range t.rows {
		ours := []string{r.label}
		for i, c := range cs {
			v := "—"
			if c != nil {
				v = fmt.Sprintf(r.verb, r.v(c))
			}
			switch {
			case t.per == 2 && i%2 == 1:
				ours[len(ours)-1] += "→" + v + r.change(c, cs[i-1])
			case t.per == 1 && r.delta && i > 0:
				ours = append(ours, v+r.change(c, cs[0]))
			default:
				ours = append(ours, v)
			}
		}
		rows = append(rows, ours)
		if r.paper != nil {
			rows = append(rows, append([]string{"paper"}, r.paper...))
		}
	}
	return markdown(rows...)
}

// change is " (Δ)", the relative change from base to c at one decimal
// with a typographic minus, or nothing when either is missing or the
// base is zero.
func (r tableRow) change(c, base *tableCell) string {
	if c == nil || base == nil || r.v(base) == 0 {
		return ""
	}
	return strings.Replace(fmt.Sprintf(" (%+.1f %%)", 100*(r.v(c)/r.v(base)-1)), "-", "−", 1)
}

// renderEnsemble writes the seed ensemble's two tables as markdown: per
// flow × tile the f_clk geomean [min–max] and the range of each other
// metric over the seeds that ran, then each chain link's win rate.
func renderEnsemble(ss []*Series, seeds []uint64) string {
	rows := [][]string{{"tile", "flow", "f_clk [MHz]", "wirelength [m]", "F2F bumps", "route overflow",
		fmt.Sprintf("runs (seeds %d–%d)", seeds[0], seeds[len(seeds)-1])}}
	for _, s := range ss {
		f, fclk := s.ran(), "—"
		if len(f) > 0 {
			fclk = fmt.Sprintf("%.0f [%.0f–%.0f]", geomean(f), slices.Min(f), slices.Max(f))
		}
		rows = append(rows, []string{strings.TrimPrefix(s.Tile, "piton_"), flowLabels[s.Flow], fclk,
			span(s.WLm, "%.2f"), span(s.F2FBumps, "%.0f"), span(s.Overflow, "%.0f"), fmt.Sprint(len(f))})
	}
	won := [][]string{{"link (f_clk)", "seeds won"}}
	for _, l := range links(ss) {
		won = append(won, []string{strings.TrimPrefix(l.lo.Tile, "piton_") + ": " + flowLabels[l.lo.Flow] + " < " + flowLabels[l.hi.Flow],
			fmt.Sprintf("%d/%d", l.won, l.ran)})
	}
	return markdown(rows...) + "\n" + markdown(won...)
}

// span is the range of the values that are not NaN at verb's precision:
// one value when they all print alike, "—" when there are none.
func span(v []float64, verb string) string {
	v = slices.DeleteFunc(slices.Clone(v), math.IsNaN)
	if len(v) == 0 {
		return "—"
	}
	lo, hi := fmt.Sprintf(verb, slices.Min(v)), fmt.Sprintf(verb, slices.Max(v))
	if lo == hi {
		return lo
	}
	return lo + "–" + hi
}

// markdown is a markdown table: the header row, its rule, then the rows.
func markdown(rows ...[]string) string {
	var b strings.Builder
	for i, r := range rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
		if i == 0 {
			b.WriteString("|" + strings.Repeat("---|", len(r)) + "\n")
		}
	}
	return b.String()
}

// blockRE matches a rendered block of EXPERIMENTS.md: its begin marker,
// which names it, the lines of the block and the end marker.
var blockRE = regexp.MustCompile(`(?s)<!-- rendered:(\w+) -->\n.*?<!-- /rendered -->`)

// Render returns the markdown md with every rendered block rewritten from
// the BENCH_qor.json file qor: the lines between "<!-- rendered:NAME -->"
// and "<!-- /rendered -->" become what `macro3d -experiment NAME` prints
// from those cells, for NAME seeds or any experiment of paperTables.
func Render(md, qor []byte) ([]byte, error) {
	var doc QoRFile
	err := json.Unmarshal(qor, &doc)
	out := blockRE.ReplaceAllFunc(md, func(m []byte) []byte {
		name := string(blockRE.FindSubmatch(m)[1])
		t, ok := paperTables[name]
		block := ""
		switch cells := doc.Tables[name]; {
		case name == "seeds" && len(doc.Seeds) > 0:
			block = renderEnsemble(doc.Cells, doc.Seeds)
		case ok && len(cells) == t.cells():
			block = t.render(cells)
		default:
			err = cmp.Or(err, fmt.Errorf("BENCH_qor.json holds %d cells for the block %s", len(cells), name))
		}
		return fmt.Appendf(nil, "<!-- rendered:%s -->\n%s<!-- /rendered -->", name, block)
	})
	return out, err
}
