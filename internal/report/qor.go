package report

import (
	"context"
	"encoding/json"

	"macro3d/internal/flows"
	"macro3d/internal/piton"
)

// QoRFile is BENCH_qor.json: the seed ensemble (Seeds, and a Series per
// flow × tile) and, by experiment name, the cells of every other
// experiment. An experiment's Result.QoR holds its own part only;
// Result.MergeQoR folds it into the file. benchjson's sign test reads the
// ensemble through this type.
type QoRFile struct {
	Seeds  []uint64                `json:"seeds,omitempty"`
	Cells  []*Series               `json:"cells,omitempty"`
	Tables map[string][]*tableCell `json:"tables,omitempty"`
}

// tableCell is one cell of a recorded experiment as BENCH_qor.json keeps
// it: the Cell — its tile by name and data width, and each knob it sets,
// omitted when zero — and the PPA fields the tables print.
type tableCell struct {
	Flow               string              `json:"flow"`
	Tile               string              `json:"tile"`
	Seed               uint64              `json:"seed"`
	MacroDieMetals     int                 `json:"macro_die_metals,omitempty"`
	DataWidth          int                 `json:"data_width"`
	BlockageResolution float64             `json:"blockage_resolution_um,omitempty"`
	F2FPitch           float64             `json:"f2f_pitch_um,omitempty"`
	TargetPeriod       float64             `json:"target_period_ps,omitempty"`
	MacroProcess       *piton.MacroProcess `json:"macro_process,omitempty"`

	FclkMHz          float64 `json:"fclk_mhz"`
	EmeanFJ          float64 `json:"emean_fj"`
	FootprintMM2     float64 `json:"footprint_mm2"`
	LogicCellAreaMM2 float64 `json:"logic_cell_area_mm2"`
	MetalAreaMM2     float64 `json:"metal_area_mm2"`
	WLm              float64 `json:"wl_m"`
	F2FBumps         int     `json:"f2f_bumps"`
	CpinNF           float64 `json:"cpin_nf"`
	CwireNF          float64 `json:"cwire_nf"`
	ClkDepth         int     `json:"clk_depth"`
	CritPathWLmm     float64 `json:"crit_path_wl_mm"`
	Overflow         int     `json:"overflow"`
	MinPeriodPs      float64 `json:"min_period_ps"`
	PowerUW          float64 `json:"power_uw"`
	LeakageUW        float64 `json:"leakage_uw"`
	MacroPins        int     `json:"macro_pins"`
}

// recorded is the named experiment of paperTables over the cells cellsOf
// lists, in one driver call.
func recorded(name string, cellsOf func(cfg flows.Config) []Cell) experiment {
	return experiment{name, func(ctx context.Context, cfg flows.Config, keepGoing bool) (*Result, error) {
		cells := cellsOf(cfg)
		ps, err := Run(ctx, cfg, cells, keepGoing)
		return record(name, cells, ps, err)
	}}
}

// record is the result of the named experiment of paperTables from its
// cells, their PPA and the driver's error: rendered, and — once every
// cell ran — with its part of BENCH_qor.json, the cells under its name in
// the tables (QoRFile).
func record(name string, cells []Cell, ps []*flows.PPA, err error) (*Result, error) {
	tcs := records(cells, ps)
	res := &Result{Cells: cells, PPA: ps, Text: paperTables[name].render(tcs)}
	if err != nil {
		return res, err
	}
	res.QoR, err = marshalQoR(QoRFile{Tables: map[string][]*tableCell{name: tcs}})
	return res, err
}

// records is the cells and their PPA as BENCH_qor.json keeps them, nil
// for a cell that did not run.
func records(cells []Cell, ps []*flows.PPA) []*tableCell {
	tcs := make([]*tableCell, len(ps))
	for i, p := range ps {
		if c := cells[i]; p != nil {
			tcs[i] = &tableCell{
				Flow: c.Flow, Tile: c.Tile.Name, Seed: c.Seed, MacroDieMetals: c.MacroDieMetals,
				DataWidth: c.Tile.DataWidth, BlockageResolution: c.BlockageResolution, F2FPitch: c.F2FPitch, TargetPeriod: c.TargetPeriod,
				FclkMHz: p.FclkMHz, EmeanFJ: p.EmeanFJ, FootprintMM2: p.FootprintMM2,
				LogicCellAreaMM2: p.LogicCellAreaMM2, MetalAreaMM2: p.MetalAreaMM2, WLm: p.TotalWLm,
				F2FBumps: p.F2FBumps, CpinNF: p.CpinNF, CwireNF: p.CwireNF, ClkDepth: p.ClkDepth,
				CritPathWLmm: p.CritPathWLmm, Overflow: p.RouteOverflow, MinPeriodPs: p.MinPeriodPs,
				PowerUW: p.PowerUW, LeakageUW: p.LeakageUW, MacroPins: p.MacroPins,
			}
			if mp := c.Tile.MacroProcess; mp != (piton.MacroProcess{}) {
				tcs[i].MacroProcess = &mp
			}
		}
	}
	return tcs
}

// marshalQoR encodes a BENCH_qor.json document as the file holds it.
func marshalQoR(doc QoRFile) ([]byte, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// MergeQoR returns the BENCH_qor.json file (nil when there is none yet)
// with the part the result's QoR holds replaced and every other part
// kept, so the seed ensemble and each experiment update their own part of
// one file.
func (r *Result) MergeQoR(file []byte) ([]byte, error) {
	var doc, part QoRFile
	if file != nil {
		if err := json.Unmarshal(file, &doc); err != nil {
			return nil, err
		}
	}
	if err := json.Unmarshal(r.QoR, &part); err != nil {
		return nil, err
	}
	if part.Cells != nil {
		doc.Seeds, doc.Cells = part.Seeds, part.Cells
	}
	for name, cells := range part.Tables {
		if doc.Tables == nil {
			doc.Tables = map[string][]*tableCell{}
		}
		doc.Tables[name] = cells
	}
	return marshalQoR(doc)
}
