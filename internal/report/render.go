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

// tableRow is a metric of Tables I–III: its label, the precision ours
// print at, its value in a cell, and the paper's values as the paper
// prints them, one per column (none where it reports none). Table I
// follows a delta row's values with their change against 2D; Tables II
// and III print every row as base→variant (Δ).
type tableRow struct {
	label, verb string
	v           func(c *tableCell) float64
	delta       bool
	paper       []string
}

// with is the row with the paper's values, and deltas in Table I.
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
)

// paperTable is one of Tables I–III: its header, a column per cell
// (Table I) or per (base, variant) pair of cells, and its rows.
type paperTable struct {
	head []string
	rows []tableRow
}

// paperTables is Tables I–III by experiment name, and the one place the
// paper's published values are kept.
var paperTables = map[string]paperTable{
	"table1": {[]string{"metric (Δ vs 2D)", "2D", "MoL S2D", "BF S2D", "Macro-3D"}, []tableRow{
		fclkRow.with(true, "390", "227 (−41.8 %)", "260 (−33.3 %)", "470 (+20.5 %)"),
		emeanRow.with(true, "116.7", "123.1 (+5 %)", "112.9 (−3 %)", "117.6 (+1 %)"),
		areaRow.with(false, "1.20", "0.60", "0.60", "0.60"),
		bumpsRow.with(false, "0", "5405", "8703", "4740"),
		overflowRow,
	}},
	"table2": {[]string{"metric (2D→Macro-3D)", "small", "large"}, []tableRow{
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
	"table3": {[]string{"metric (M6–M6→M6–M4)", "small", "large"}, []tableRow{
		fclkRow.with(false, "−1.8 %", "+0.5 %"),
		emeanRow.with(false, "+1.3 %", "−1.0 %"),
		{"A_metal [mm²]", "%.1f", func(c *tableCell) float64 { return c.MetalAreaMM2 }, false, []string{"−16.7 %", "−16.7 %"}},
		bumpsRow.with(false, "−18.4 %", "−24.1 %"),
		overflowRow,
	}},
}

// render writes the table as markdown from its four cells in cell order,
// nil where a cell did not run ("—"): each row of ours, then the paper's
// where it published one.
func (t paperTable) render(cs []*tableCell) string {
	rows := [][]string{t.head}
	pair := len(cs) / (len(t.head) - 1) // cells per column
	for _, r := range t.rows {
		ours := []string{r.label}
		for i, c := range cs {
			v := "—"
			if c != nil {
				v = fmt.Sprintf(r.verb, r.v(c))
			}
			switch {
			case pair == 2 && i%2 == 1:
				ours[len(ours)-1] += "→" + v + r.change(c, cs[i-1])
			case pair == 1 && r.delta && i > 0:
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
func renderEnsemble(ss []*series, seeds []uint64) string {
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
// from those cells, for NAME seeds, table1, table2 or table3.
func Render(md, qor []byte) ([]byte, error) {
	var doc qorDoc
	err := json.Unmarshal(qor, &doc)
	out := blockRE.ReplaceAllFunc(md, func(m []byte) []byte {
		name := string(blockRE.FindSubmatch(m)[1])
		t, ok := paperTables[name]
		block := ""
		switch cells := doc.Tables[name]; {
		case name == "seeds" && len(doc.Seeds) > 0:
			block = renderEnsemble(doc.Cells, doc.Seeds)
		case ok && len(cells) == 4:
			block = t.render(cells)
		default:
			err = cmp.Or(err, fmt.Errorf("BENCH_qor.json holds no part for the block %s", name))
		}
		return fmt.Appendf(nil, "<!-- rendered:%s -->\n%s<!-- /rendered -->", name, block)
	})
	return out, err
}
