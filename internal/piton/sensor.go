package piton

import (
	"fmt"

	"macro3d/internal/cell"
	"macro3d/internal/netlist"
)

// SensorConfig describes a sensor-on-logic SoC: an array of
// analog/sensor macros (the paper's second heterogeneous use case,
// §I–II) read out by a digital pipeline on the logic die. The sensor
// die can use an older node — in flow terms its macros simply live on
// the macro die with a shallower BEOL.
type SensorConfig struct {
	Name string

	// Sensors is the macro count (arranged by the floorplanner).
	Sensors int
	// SensorW/H are the macro dimensions, µm.
	SensorW, SensorH float64
	// DataBits per sensor.
	DataBits int

	// Pipeline shape of the readout/processing logic.
	Stages, StageWidth, CloudDepth int

	// TargetLogicArea calibrates the logic area, µm² (0 = no scaling).
	TargetLogicArea float64

	Seed uint64
}

// DefaultSensorSoC returns a 16-sensor imaging-style SoC.
func DefaultSensorSoC() SensorConfig {
	return SensorConfig{
		Name:    "sensor_soc",
		Sensors: 16, SensorW: 180, SensorH: 180, DataBits: 12,
		Stages: 4, StageWidth: 64, CloudDepth: 4,
		TargetLogicArea: 0.12e6,
		Seed:            11,
	}
}

// GenerateSensorSoC builds the sensor-on-logic netlist. The returned
// tile has no inter-tile port groups (a sensor SoC is not abutted).
func GenerateSensorSoC(cfg SensorConfig) (*Tile, error) {
	if cfg.Sensors < 1 || cfg.DataBits < 1 || cfg.Stages < 2 || cfg.StageWidth < 4 {
		return nil, fmt.Errorf("piton: implausible sensor config %+v", cfg)
	}
	if cfg.CloudDepth < 1 {
		cfg.CloudDepth = 4
	}
	g := newGen(cfg.Name, Config{CloudDepth: cfg.CloudDepth}, cfg.Seed, 1)
	if err := g.buildSensor(cfg); err != nil {
		return nil, err
	}
	if err := g.checkNames(); err != nil {
		return nil, err
	}
	if err := g.calibrate(cfg.TargetLogicArea); err != nil {
		return nil, err
	}
	if err := g.d.Validate(); err != nil {
		return nil, fmt.Errorf("piton: sensor SoC invalid: %w", err)
	}
	return g.tile, nil
}

// buildSensor builds the SoC netlist on g's library.
func (g *gen) buildSensor(cfg SensorConfig) error {
	clkPort := g.addPort("clk_i", cell.DirIn)
	clkPort.Layer = "M6"
	g.tile.ClockPort = "clk_i"

	// Sensor macros with per-sensor capture registers.
	var captureQ []netlist.PinRef
	for i := 0; i < cfg.Sensors; i++ {
		m, err := cell.NewSensor(fmt.Sprintf("sensor_macro_%d", i), cfg.SensorW, cfg.SensorH, cfg.DataBits)
		if err != nil {
			return err
		}
		inst := g.addMacro(fmt.Sprintf("sens_%d", i), m)
		g.clk = append(g.clk, netlist.IPin(inst, "CLK"))
		// Enable decode (shared cloud built later drives EN via sweep).
		hint := fmt.Sprintf("sens%d_cap", i)
		for b := 0; b < cfg.DataBits; b++ {
			ff := g.dff(hint)
			g.drive("sq", netlist.IPin(inst, fmt.Sprintf("OUT%d", b)), netlist.IPin(ff, "D"))
			captureQ = append(captureQ, netlist.IPin(ff, "Q"))
		}
	}

	// Readout pipeline: capture registers feed processing stages.
	banks := make([][]*netlist.Instance, cfg.Stages)
	for s := range banks {
		banks[s] = make([]*netlist.Instance, cfg.StageWidth)
		hint := fmt.Sprintf("proc_s%d", s)
		for b := range banks[s] {
			banks[s][b] = g.dff(hint)
		}
	}
	first := g.cloud("readout", captureQ, cfg.StageWidth, cfg.CloudDepth)
	for i, ff := range banks[0] {
		g.fanout(first[i%len(first)], netlist.IPin(ff, "D"))
	}
	for s := 0; s+1 < cfg.Stages; s++ {
		drv := make([]netlist.PinRef, len(banks[s]))
		for i, ff := range banks[s] {
			drv[i] = netlist.IPin(ff, "Q")
		}
		outs := g.cloud(fmt.Sprintf("proc_c%d", s), drv, cfg.StageWidth, cfg.CloudDepth)
		for i, ff := range banks[s+1] {
			g.fanout(outs[i%len(outs)], netlist.IPin(ff, "D"))
		}
	}

	// Output bus ports on the east edge (full-cycle).
	last := banks[cfg.Stages-1]
	for b := 0; b < cfg.DataBits; b++ {
		p := g.addPort(g.seqName("", "dout", b), cell.DirOut)
		p.Layer = "M6"
		p.ExtCap = 10
		g.drive("dout", netlist.IPin(last[b%len(last)], "Q"), netlist.PPin(p))
	}

	g.sweepUndriven()

	g.addClock(clkPort)
	return nil
}
