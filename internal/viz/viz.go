// Package viz renders floorplans and placed/routed layouts as SVG (and
// quick ASCII density maps) — the repository's stand-in for the
// paper's Figs. 1 and 4–6: macro floorplans, final 2D layouts, and the
// separated MoL dies with their F2F bump clouds.
package viz

import (
	"fmt"
	"strings"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

// Options controls layout rendering.
type Options struct {
	Title string
	// ShowCells draws standard cells (small green rectangles).
	ShowCells bool
	// DieFilter limits drawn instances to one die; nil draws all.
	DieFilter *netlist.Die
	// Bumps are F2F via locations drawn as red dots.
	Bumps []geom.Point
	// ShowPorts marks perimeter ports.
	ShowPorts bool
	// ShowObstructions draws the per-layer routing obstructions of
	// hardened-macro abstracts inside their outlines — logic-die
	// layers in blue, macro-die (_MD) layers in red.
	ShowObstructions bool
}

// widthPx is the width of a layout SVG, px; its height follows the die
// aspect.
const widthPx = 640.0

// LayoutSVG renders the design inside the die outline.
func LayoutSVG(d *netlist.Design, die geom.Rect, o Options) string {
	s := widthPx / die.W()
	hPx := die.H() * s
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.1f %.1f">`,
		widthPx, hPx+24, widthPx, hPx+24)
	b.WriteByte('\n')
	if o.Title != "" {
		fmt.Fprintf(&b, `<text x="4" y="14" font-size="12" font-family="monospace">%s</text>`+"\n", o.Title)
	}
	// y grows downward in SVG; flip the die.
	ty := func(y float64) float64 { return 24 + (die.Uy-y)*s }
	tx := func(x float64) float64 { return (x - die.Lx) * s }
	rect := func(r geom.Rect, fill, stroke string, sw float64) {
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="%s" stroke-width="%.2f"/>`+"\n",
			tx(r.Lx), ty(r.Uy), r.W()*s, r.H()*s, fill, stroke, sw)
	}
	// Die outline.
	rect(die, "#ffffff", "#000000", 1.5)

	keep := func(inst *netlist.Instance) bool {
		return o.DieFilter == nil || inst.Die == *o.DieFilter
	}
	// Standard cells first (underneath macros).
	if o.ShowCells {
		for _, inst := range d.Instances {
			if inst.IsMacro() || !inst.Placed || !keep(inst) {
				continue
			}
			rect(inst.Bounds(), "#7fbf7f", "none", 0)
		}
	}
	// Macros with labels. Hardened abstracts get a distinct dashed
	// gold boundary — they are our own signed-off sub-blocks, not
	// compiler macros — and optionally their per-layer obstructions.
	for _, inst := range d.Macros() {
		if !inst.Placed || !keep(inst) {
			continue
		}
		r := inst.Bounds()
		if inst.Master.Abstract != nil {
			fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#f4ecd2" stroke="#8a6d1a" stroke-width="1.2" stroke-dasharray="5,3"/>`+"\n",
				tx(r.Lx), ty(r.Uy), r.W()*s, r.H()*s)
			if o.ShowObstructions {
				for _, ob := range inst.Master.Obstructions {
					or := ob.Rect.Translate(inst.Loc)
					fill := "#3b6fb5" // logic-die layer
					if strings.HasSuffix(ob.Layer, "_MD") {
						fill = "#b54a3b" // macro-die layer
					}
					fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="0.12" stroke="none"/>`+"\n",
						tx(or.Lx), ty(or.Uy), or.W()*s, or.H()*s, fill)
				}
			}
			if r.W()*s > 40 {
				fmt.Fprintf(&b, `<text x="%.2f" y="%.2f" font-size="9" font-family="monospace" fill="#8a6d1a">%s</text>`+"\n",
					tx(r.Lx)+2, ty(r.Center().Y), inst.Name)
			}
			continue
		}
		fill := "#9db7d9"
		if inst.Die == netlist.MacroDie {
			fill = "#d9a9a9"
		}
		rect(r, fill, "#333333", 0.8)
		if r.W()*s > 40 {
			fmt.Fprintf(&b, `<text x="%.2f" y="%.2f" font-size="9" font-family="monospace">%s</text>`+"\n",
				tx(r.Lx)+2, ty(r.Center().Y), inst.Name)
		}
	}
	// Ports.
	if o.ShowPorts {
		for _, p := range d.Ports {
			fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="1.4" fill="#444444"/>`+"\n",
				tx(p.Loc.X), ty(p.Loc.Y))
		}
	}
	// F2F bumps.
	for _, p := range o.Bumps {
		fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="1.1" fill="#cc2222"/>`+"\n",
			tx(p.X), ty(p.Y))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// CrossSectionSVG draws the Fig. 1-style cross view of either a 2D IC
// (mol=false) or an F2F-stacked MoL 3D IC (mol=true) with the given
// metal counts.
func CrossSectionSVG(logicMetals, macroMetals int, mol bool) string {
	var b strings.Builder
	w, layerH := 420.0, 12.0
	rows := logicMetals + 2
	if mol {
		rows = logicMetals + macroMetals + 5
	}
	h := float64(rows)*layerH + 40
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f">`, w, h)
	b.WriteByte('\n')
	y := 20.0
	bar := func(label, fill string) {
		fmt.Fprintf(&b, `<rect x="40" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#333" stroke-width="0.5"/>`+"\n",
			y, w-80, layerH-2, fill)
		fmt.Fprintf(&b, `<text x="44" y="%.1f" font-size="9" font-family="monospace">%s</text>`+"\n",
			y+layerH-4, label)
		y += layerH
	}
	if mol {
		// Macro die on top, face down: substrate, then M1_MD..Mn_MD,
		// then F2F bumps, then the logic die's Mn..M1, substrate.
		bar("macro-die substrate (memory/sensor macros)", "#d9a9a9")
		for i := 1; i <= macroMetals; i++ {
			bar(fmt.Sprintf("M%d_MD", i), "#e8d3b0")
		}
		bar("F2F_VIA bumps", "#cc2222")
		for i := logicMetals; i >= 1; i-- {
			bar(fmt.Sprintf("M%d", i), "#c9d8ef")
		}
		bar("logic-die substrate (standard cells)", "#9db7d9")
	} else {
		for i := logicMetals; i >= 1; i-- {
			bar(fmt.Sprintf("M%d", i), "#c9d8ef")
		}
		bar("substrate (cells + macros)", "#9db7d9")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// ASCIIDensity renders a cols-wide density map of placed cell area
// ('.' empty → '#' full; 'M' macro) for terminal inspection.
func ASCIIDensity(d *netlist.Design, die geom.Rect, cols int, dieFilter *netlist.Die) string {
	if cols < 4 {
		cols = 4
	}
	rows := int(float64(cols) * die.H() / die.W() / 2) // chars are ~2× tall
	if rows < 2 {
		rows = 2
	}
	g := geom.Grid{Region: die, NX: cols, NY: rows,
		DX: die.W() / float64(cols), DY: die.H() / float64(rows)}
	area := make([]float64, g.Bins())
	macro := make([]bool, g.Bins())
	for _, inst := range d.Instances {
		if !inst.Placed {
			continue
		}
		if dieFilter != nil && inst.Die != *dieFilter {
			continue
		}
		if inst.IsMacro() {
			x0, y0, x1, y1, ok := g.CoverRange(inst.Bounds())
			if !ok {
				continue
			}
			for iy := y0; iy <= y1; iy++ {
				for ix := x0; ix <= x1; ix++ {
					macro[g.Index(ix, iy)] = true
				}
			}
			continue
		}
		ix, iy := g.Locate(inst.Center())
		area[g.Index(ix, iy)] += inst.Master.Area()
	}
	shades := []byte(" .:-=+*#")
	binArea := g.DX * g.DY
	var b strings.Builder
	for iy := g.NY - 1; iy >= 0; iy-- {
		for ix := 0; ix < g.NX; ix++ {
			i := g.Index(ix, iy)
			if macro[i] {
				b.WriteByte('M')
				continue
			}
			f := area[i] / binArea
			k := int(f * float64(len(shades)))
			if k >= len(shades) {
				k = len(shades) - 1
			}
			b.WriteByte(shades[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
