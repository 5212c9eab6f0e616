// Package report runs the paper's experiments end to end and formats
// their tables: Table I (max-performance PPA and cost of 2D, MoL S2D,
// BF S2D and Macro-3D on the small-cache tile), Table II (in-depth 2D
// versus Macro-3D for both cache configurations), Table III (the
// heterogeneous-BEOL M6–M4 ablation), and the §V-A iso-performance
// power comparison.
//
// Every driver has a context-aware variant that honours cancellation
// at flow-stage boundaries and can keep going past a failed column:
// the returned table always carries the columns that completed, so a
// cancelled or partially failed experiment still renders (missing
// columns format as "—").
package report

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// column is one experiment cell: a labelled flow run writing its
// result through a pointer into the table under construction.
type column struct {
	name string
	run  func() error
}

// runColumns executes the columns in order. Cancellation is observed
// between columns (and, inside a column, at the flow's own stage
// boundaries). With keepGoing, failed columns are recorded and the
// rest still run; otherwise the first failure stops the table. The
// error joins every column failure, each labelled.
func runColumns(ctx context.Context, label string, keepGoing bool, cols []column) error {
	var errs []error
	for _, c := range cols {
		if err := ctx.Err(); err != nil {
			errs = append(errs, fmt.Errorf("%s %s: %w", label, c.name, err))
			break
		}
		if err := c.run(); err != nil {
			err = fmt.Errorf("%s %s: %w", label, c.name, err)
			if !keepGoing || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return errors.Join(append(errs, err)...)
			}
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// TableI holds the four compared flows on the small-cache tile.
// Columns left nil (run failed, cancelled, or not reached) format
// as "—".
type TableI struct {
	TwoD, S2D, BFS2D, Macro3D *flows.PPA
}

// RunTableI reproduces Table I.
func RunTableI(seed uint64) (*TableI, error) {
	return RunTableIWith(context.Background(), flows.Config{Seed: seed}, false)
}

// RunTableIWith reproduces Table I under the given context and flow
// configuration (hardening knobs — Retry, Verify — apply to every
// column; an unset tile defaults to the paper's
// small-cache config). The returned table is never nil: columns
// completed before a failure or cancellation are preserved.
func RunTableIWith(ctx context.Context, cfg flows.Config, keepGoing bool) (*TableI, error) {
	if cfg.Piton.Name == "" && cfg.Generator == nil {
		cfg.Piton = piton.SmallCache()
	}
	t := &TableI{}
	err := runColumns(ctx, "table I", keepGoing, []column{
		{"2D", func() (err error) { t.TwoD, _, err = flows.Run2DCtx(ctx, cfg); return }},
		{"MoL S2D", func() (err error) { t.S2D, _, err = flows.RunS2DCtx(ctx, cfg, false); return }},
		{"BF S2D", func() (err error) { t.BFS2D, _, err = flows.RunS2DCtx(ctx, cfg, true); return }},
		{"Macro-3D", func() (err error) { t.Macro3D, _, _, err = flows.RunMacro3DCtx(ctx, cfg); return }},
	})
	return t, err
}

// overflow is the row every table carries beside its PPA: the number of
// gcell-layers the final routing leaves over capacity. A column that
// does not route clean is not a like-for-like comparison with one that
// does, and the reader has to be able to see which is which.
const overflowRow = "Route overflow"

func overflow(p *flows.PPA) float64 { return float64(p.RouteOverflow) }

// cell formats one table value, rendering missing columns as "—".
func cell(p *flows.PPA, format string, v func(p *flows.PPA) float64) string {
	if p == nil {
		return "—"
	}
	return fmt.Sprintf(format, v(p))
}

// Format renders the table in the paper's row layout.
func (t *TableI) Format() string {
	cols := []*flows.PPA{t.TwoD, t.S2D, t.BFS2D, t.Macro3D}
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — max-performance PPA and cost, small-cache tile\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s %10s\n", "", "2D", "MoL S2D", "BF S2D", "Macro-3D")
	row := func(name, format string, v func(p *flows.PPA) float64) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, p := range cols {
			fmt.Fprintf(&b, " %10s", cell(p, format, v))
		}
		b.WriteByte('\n')
	}
	row("fclk [MHz]", "%.0f", func(p *flows.PPA) float64 { return p.FclkMHz })
	row("Emean [fJ/cycle]", "%.1f", func(p *flows.PPA) float64 { return p.EmeanFJ })
	row("Afootprint [mm²]", "%.2f", func(p *flows.PPA) float64 { return p.FootprintMM2 })
	row("F2F bumps", "%.0f", func(p *flows.PPA) float64 { return float64(p.F2FBumps) })
	row(overflowRow, "%.0f", overflow)
	return b.String()
}

// TableII holds the in-depth comparison for both configurations.
type TableII struct {
	Small2D, SmallM3D *flows.PPA
	Large2D, LargeM3D *flows.PPA
}

// RunTableII reproduces Table II.
func RunTableII(seed uint64) (*TableII, error) {
	return RunTableIIWith(context.Background(), flows.Config{Seed: seed}, false)
}

// RunTableIIWith reproduces Table II under the given context; cfg
// carries the seed and hardening knobs while the tile is set per
// column (the table inherently compares the small- and large-cache
// configurations). Completed columns survive failure or cancellation.
func RunTableIIWith(ctx context.Context, cfg flows.Config, keepGoing bool) (*TableII, error) {
	t := &TableII{}
	cs, cl := cfg, cfg
	cs.Piton = piton.SmallCache()
	cl.Piton = piton.LargeCache()
	err := runColumns(ctx, "table II", keepGoing, []column{
		{"small 2D", func() (err error) { t.Small2D, _, err = flows.Run2DCtx(ctx, cs); return }},
		{"small Macro-3D", func() (err error) { t.SmallM3D, _, _, err = flows.RunMacro3DCtx(ctx, cs); return }},
		{"large 2D", func() (err error) { t.Large2D, _, err = flows.Run2DCtx(ctx, cl); return }},
		{"large Macro-3D", func() (err error) { t.LargeM3D, _, _, err = flows.RunMacro3DCtx(ctx, cl); return }},
	})
	return t, err
}

func pct(n, d float64) string {
	if d == 0 {
		return "—"
	}
	return fmt.Sprintf("(%+.1f%%)", 100*(n/d-1))
}

// pctCell is the nil-safe relative delta between two columns.
func pctCell(n, d *flows.PPA, v func(p *flows.PPA) float64) string {
	if n == nil || d == nil {
		return "—"
	}
	return pct(v(n), v(d))
}

// Format renders the table with the paper's relative deltas.
func (t *TableII) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — in-depth comparison of 2D and Macro-3D designs\n")
	fmt.Fprintf(&b, "%-26s %12s %22s %12s %22s\n", "", "Small 2D", "Small Macro-3D", "Large 2D", "Large Macro-3D")
	row := func(name string, v func(p *flows.PPA) float64, format string) {
		fmt.Fprintf(&b, "%-26s %12s %12s %9s %12s %12s %9s\n", name,
			cell(t.Small2D, format, v), cell(t.SmallM3D, format, v), pctCell(t.SmallM3D, t.Small2D, v),
			cell(t.Large2D, format, v), cell(t.LargeM3D, format, v), pctCell(t.LargeM3D, t.Large2D, v))
	}
	row("fclk [MHz]", func(p *flows.PPA) float64 { return p.FclkMHz }, "%.0f")
	row("Emean [fJ/cycle]", func(p *flows.PPA) float64 { return p.EmeanFJ }, "%.1f")
	row("Afootprint [mm²]", func(p *flows.PPA) float64 { return p.FootprintMM2 }, "%.2f")
	row("Alogic-cells [mm²]", func(p *flows.PPA) float64 { return p.LogicCellAreaMM2 }, "%.3f")
	row("Total wirelength [m]", func(p *flows.PPA) float64 { return p.TotalWLm }, "%.2f")
	row("F2F bumps", func(p *flows.PPA) float64 { return float64(p.F2FBumps) }, "%.0f")
	row("Cpin,total [nF]", func(p *flows.PPA) float64 { return p.CpinNF }, "%.3f")
	row("Cwire,total [nF]", func(p *flows.PPA) float64 { return p.CwireNF }, "%.3f")
	row("Max clk-tree depth", func(p *flows.PPA) float64 { return float64(p.ClkDepth) }, "%.0f")
	row("Crit-path WL [mm]", func(p *flows.PPA) float64 { return p.CritPathWLmm }, "%.2f")
	row(overflowRow, overflow, "%.0f")
	return b.String()
}

// TableIII holds the metal-stack ablation (M6–M6 versus M6–M4).
type TableIII struct {
	SmallM6M6, SmallM6M4 *flows.PPA
	LargeM6M6, LargeM6M4 *flows.PPA
}

// RunTableIII reproduces Table III: removing two metal layers from the
// macro die.
func RunTableIII(seed uint64) (*TableIII, error) {
	return RunTableIIIWith(context.Background(), flows.Config{Seed: seed}, false)
}

// RunTableIIIWith is the context-aware Table III driver; cfg carries
// the seed and hardening knobs, the tile and macro-die metal count are
// set per column.
func RunTableIIIWith(ctx context.Context, cfg flows.Config, keepGoing bool) (*TableIII, error) {
	t := &TableIII{}
	var cols []column
	for _, c := range []struct {
		pc     piton.Config
		metals int
		dst    **flows.PPA
	}{
		{piton.SmallCache(), 6, &t.SmallM6M6},
		{piton.SmallCache(), 4, &t.SmallM6M4},
		{piton.LargeCache(), 6, &t.LargeM6M6},
		{piton.LargeCache(), 4, &t.LargeM6M4},
	} {
		c := c
		ccfg := cfg
		ccfg.Piton = c.pc
		ccfg.MacroDieMetals = c.metals
		cols = append(cols, column{
			name: fmt.Sprintf("(%s, M6–M%d)", c.pc.Name, c.metals),
			run: func() (err error) {
				*c.dst, _, _, err = flows.RunMacro3DCtx(ctx, ccfg)
				return
			},
		})
	}
	err := runColumns(ctx, "table III", keepGoing, cols)
	return t, err
}

// Format renders the ablation table.
func (t *TableIII) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — impact of removing two macro-die metal layers\n")
	fmt.Fprintf(&b, "%-20s %10s %10s %9s %10s %10s %9s\n", "",
		"S M6–M6", "S M6–M4", "", "L M6–M6", "L M6–M4", "")
	row := func(name string, v func(p *flows.PPA) float64, format string) {
		fmt.Fprintf(&b, "%-20s %10s %10s %9s %10s %10s %9s\n", name,
			cell(t.SmallM6M6, format, v), cell(t.SmallM6M4, format, v), pctCell(t.SmallM6M4, t.SmallM6M6, v),
			cell(t.LargeM6M6, format, v), cell(t.LargeM6M4, format, v), pctCell(t.LargeM6M4, t.LargeM6M6, v))
	}
	row("fclk [MHz]", func(p *flows.PPA) float64 { return p.FclkMHz }, "%.0f")
	row("Emean [fJ/cycle]", func(p *flows.PPA) float64 { return p.EmeanFJ }, "%.1f")
	row("Ametal [mm²]", func(p *flows.PPA) float64 { return p.MetalAreaMM2 }, "%.1f")
	row("F2F bumps", func(p *flows.PPA) float64 { return float64(p.F2FBumps) }, "%.0f")
	row(overflowRow, overflow, "%.0f")
	return b.String()
}

// IsoPerf holds the §V-A iso-performance power comparison: Macro-3D
// re-implemented at the 2D design's maximum frequency.
type IsoPerf struct {
	Config   string
	F2DMHz   float64
	Power2D  float64 // µW
	Power3D  float64 // µW at the same frequency
	DeltaPct float64
	PPA2D    *flows.PPA
	PPA3DIso *flows.PPA
}

// RunIsoPerf reproduces the iso-performance comparison for one tile
// configuration.
func RunIsoPerf(pc piton.Config, seed uint64) (*IsoPerf, error) {
	return RunIsoPerfCtx(context.Background(), pc, seed)
}

// RunIsoPerfCtx is the context-aware iso-performance driver. The two
// runs are inherently sequential (the Macro-3D target period is the
// 2D result), so there is no keep-going mode.
func RunIsoPerfCtx(ctx context.Context, pc piton.Config, seed uint64) (*IsoPerf, error) {
	return RunIsoPerfWith(ctx, flows.Config{Piton: pc, Seed: seed})
}

// RunIsoPerfWith is RunIsoPerfCtx taking a full flow configuration
// (unset tile defaults to small-cache). With a stage cache, the
// Macro-3D iso-performance run hits the max-performance run's place
// and route snapshots — only sign-off reruns at the 2D target.
func RunIsoPerfWith(ctx context.Context, cfg flows.Config) (*IsoPerf, error) {
	if cfg.Piton.Name == "" && cfg.Generator == nil {
		cfg.Piton = piton.SmallCache()
	}
	pc := cfg.Piton
	p2d, _, err := flows.Run2DCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// Re-implement Macro-3D for the 2D design's frequency.
	cfg.TargetPeriod = p2d.MinPeriodPs
	p3d, _, _, err := flows.RunMacro3DCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	r := &IsoPerf{
		Config:   pc.Name,
		F2DMHz:   p2d.FclkMHz,
		Power2D:  p2d.PowerUW,
		Power3D:  p3d.PowerUW,
		PPA2D:    p2d,
		PPA3DIso: p3d,
	}
	if r.Power2D > 0 {
		r.DeltaPct = 100 * (r.Power3D/r.Power2D - 1)
	}
	return r, nil
}

// Format renders the comparison.
func (r *IsoPerf) Format() string {
	return fmt.Sprintf(
		"Iso-performance (%s, %.0f MHz): 2D %.1f µW, Macro-3D %.1f µW (%+.1f%%)\n",
		r.Config, r.F2DMHz, r.Power2D/1e0, r.Power3D/1e0, r.DeltaPct)
}
