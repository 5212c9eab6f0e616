// Package power computes dynamic and leakage power of an analyzed
// design following the paper's setup: a toggle ratio of 0.2 per clock
// cycle for signals and registers, full-rate clock switching through
// the synthesized tree, per-access macro energy, and leakage at the
// typical corner. The headline metric is E_mean in fJ/cycle —
// "equivalent to power-per-megahertz" (Table I).
package power

import (
	"macro3d/internal/cell"
	"macro3d/internal/cts"
	"macro3d/internal/netlist"
	"macro3d/internal/tech"
)

// toggleRate is the switching activity per cycle of signal nets and
// macro accesses: the paper's 0.2.
const toggleRate = 0.2

// Report is the power breakdown.
type Report struct {
	// Energy per cycle, fJ.
	SignalWireFJ   float64 // α/2 · C_wire · V²
	SignalPinFJ    float64 // α/2 · C_pin · V²
	CellInternalFJ float64
	ClockFJ        float64
	MacroFJ        float64

	EnergyPerCycleFJ float64 // E_mean including leakage at FreqMHz
	DynamicFJ        float64 // E_mean excluding leakage

	LeakageUW float64

	// Totals echoed for the paper's Table II rows.
	CWireTotalFF float64
	CPinTotalFF  float64
}

// PowerUW converts the report to µW at a clock frequency in MHz.
func (r *Report) PowerUW(freqMHz float64) float64 {
	return r.DynamicFJ*freqMHz*1e-3 + r.LeakageUW
}

// Analyze computes the breakdown at supply vdd, V (the technology's),
// with leakage scaled to corner, from the signal nets' total wire and
// pin capacitances cWire and cPin, fF, at that corner (extract.Caps).
// tree may be nil (ideal clock: only sink pin caps switch); its buffers
// are priced as cts.ClockBuffer. freqMHz converts leakage into the
// per-cycle figure; pass the operating frequency.
func Analyze(d *netlist.Design, cWire, cPin float64, tree *cts.Tree, freqMHz, vdd float64, corner tech.CornerScale) *Report {
	r := &Report{}
	v2 := vdd * vdd
	a := toggleRate

	// Signal switching: each toggle charges/discharges C; energy per
	// cycle = α · ½CV².
	r.CWireTotalFF = cWire
	r.CPinTotalFF = cPin
	r.SignalWireFJ = a * 0.5 * cWire * v2
	r.SignalPinFJ = a * 0.5 * cPin * v2

	// Cell internal energy and leakage.
	var leakNW float64
	for _, inst := range d.Instances {
		m := inst.Master
		switch m.Kind {
		case cell.KindMacro:
			if m.Macro != nil {
				r.MacroFJ += a * m.Macro.EnergyPerAccess
			}
			leakNW += m.Leakage
		case cell.KindFiller:
			// no activity
		default:
			r.CellInternalFJ += a * m.InternalEnergy
			leakNW += m.Leakage
		}
	}

	// Clock: the tree's wire+pin capacitance switches twice per cycle
	// (two transitions → full CV² per cycle), plus buffer internal
	// energy at rate 1.
	if tree != nil {
		r.ClockFJ = tree.TotalCap() * v2
		if buf := d.Lib.Cell(cts.ClockBuffer); buf != nil {
			r.ClockFJ += float64(tree.Buffers) * buf.InternalEnergy
		}
	} else {
		// Ideal clock: sink pins still switch.
		var ckCap float64
		for _, inst := range d.Instances {
			if ck := inst.Master.ClockPin(); ck != nil && inst.Master.IsSequential() {
				ckCap += ck.Cap
			}
		}
		r.ClockFJ = ckCap * v2
	}

	r.LeakageUW = leakNW * 1e-3 * corner.Leakage
	r.DynamicFJ = r.SignalWireFJ + r.SignalPinFJ + r.CellInternalFJ + r.ClockFJ + r.MacroFJ
	r.EnergyPerCycleFJ = r.DynamicFJ
	if freqMHz > 0 {
		// Leakage folded in per cycle: µW / MHz = fJ/cycle.
		r.EnergyPerCycleFJ += r.LeakageUW / freqMHz * 1e3
	}
	return r
}
