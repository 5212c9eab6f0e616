// Package tech models the process technology seen by the physical
// design flow: routing layers with per-unit-length parasitics, via
// definitions, complete back-end-of-line (BEOL) stacks, process
// corners, and the face-to-face (F2F) bonding via.
//
// The package also implements the combined-BEOL construction at the
// heart of the Macro-3D methodology: merging the logic-die stack, the
// F2F via layer, and the macro-die stack (layers renamed with an "_MD"
// suffix) into one stack a standard 2D engine can route and extract.
//
// Units used throughout the module: µm for distance, kΩ for
// resistance, fF for capacitance (so R·C is in ps), fJ for energy,
// volts for supply.
package tech

import (
	"fmt"
	"strings"
)

// Dir is the preferred routing direction of a metal layer.
type Dir uint8

// Preferred directions.
const (
	DirHorizontal Dir = iota
	DirVertical
)

func (d Dir) String() string {
	if d == DirHorizontal {
		return "H"
	}
	return "V"
}

// Layer describes one routing (metal) layer.
type Layer struct {
	Name  string
	Dir   Dir     // preferred routing direction
	Pitch float64 // track pitch in µm
	Width float64 // default wire width in µm

	// Parasitics per µm of routed wire at the typical corner.
	RPerUm float64 // kΩ/µm
	CPerUm float64 // fF/µm

	// MacroDie marks layers that physically belong to the macro die of
	// a combined Macro-3D stack (the "_MD" layers).
	MacroDie bool
}

// Via describes the cut connecting layer i to layer i+1 of a stack.
type Via struct {
	Name string
	R    float64 // kΩ per cut
	C    float64 // fF per cut

	// F2F marks the face-to-face bonding via between the two dies of a
	// combined stack. F2F vias are additionally capacity-limited by the
	// bump pitch.
	F2F bool
	// Pitch is the minimum centre-to-centre spacing of cuts. Only
	// meaningful (nonzero) for F2F vias, where it limits bump density.
	Pitch float64
}

// BEOL is an ordered metal stack: Layers[0] is the lowest metal (M1),
// Vias[i] connects Layers[i] to Layers[i+1], so len(Vias) ==
// len(Layers)-1 for a well-formed stack.
type BEOL struct {
	Name   string
	Layers []Layer
	Vias   []Via
}

// Validate checks structural consistency of the stack.
func (b *BEOL) Validate() error {
	if len(b.Layers) == 0 {
		return fmt.Errorf("tech: BEOL %q has no layers", b.Name)
	}
	if len(b.Vias) != len(b.Layers)-1 {
		return fmt.Errorf("tech: BEOL %q has %d layers but %d vias",
			b.Name, len(b.Layers), len(b.Vias))
	}
	seen := make(map[string]bool, len(b.Layers))
	for i, l := range b.Layers {
		if l.Name == "" {
			return fmt.Errorf("tech: BEOL %q layer %d unnamed", b.Name, i)
		}
		if seen[l.Name] {
			return fmt.Errorf("tech: BEOL %q duplicate layer %q", b.Name, l.Name)
		}
		seen[l.Name] = true
		if l.Pitch <= 0 || l.Width <= 0 {
			return fmt.Errorf("tech: BEOL %q layer %q has non-positive geometry", b.Name, l.Name)
		}
		if l.RPerUm < 0 || l.CPerUm < 0 {
			return fmt.Errorf("tech: BEOL %q layer %q has negative parasitics", b.Name, l.Name)
		}
	}
	for i, v := range b.Vias {
		if v.R < 0 || v.C < 0 {
			return fmt.Errorf("tech: BEOL %q via %d negative parasitics", b.Name, i)
		}
		if v.F2F && v.Pitch <= 0 {
			return fmt.Errorf("tech: BEOL %q F2F via %d without pitch", b.Name, i)
		}
	}
	return nil
}

// NumLayers returns the metal layer count.
func (b *BEOL) NumLayers() int { return len(b.Layers) }

// LayerIndex returns the index of the named layer, or -1.
func (b *BEOL) LayerIndex(name string) int {
	for i, l := range b.Layers {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// F2FViaIndex returns the via index of the F2F bonding layer, or -1
// when the stack is a plain single-die BEOL.
func (b *BEOL) F2FViaIndex() int {
	for i, v := range b.Vias {
		if v.F2F {
			return i
		}
	}
	return -1
}

// LogicDieLayers returns the number of layers belonging to the logic
// die (all of them for a single-die stack).
func (b *BEOL) LogicDieLayers() int {
	n := 0
	for _, l := range b.Layers {
		if !l.MacroDie {
			n++
		}
	}
	return n
}

// MacroDieLayers returns the number of "_MD" layers.
func (b *BEOL) MacroDieLayers() int { return len(b.Layers) - b.LogicDieLayers() }

// Clone returns a deep copy of the stack.
func (b *BEOL) Clone() *BEOL {
	c := &BEOL{Name: b.Name}
	c.Layers = append([]Layer(nil), b.Layers...)
	c.Vias = append([]Via(nil), b.Vias...)
	return c
}

func (b *BEOL) String() string {
	names := make([]string, len(b.Layers))
	for i, l := range b.Layers {
		names[i] = l.Name
	}
	return fmt.Sprintf("BEOL %s: %s", b.Name, strings.Join(names, "→"))
}

// MDSuffix is appended to macro-die layer names in a combined stack,
// exactly as the paper prescribes ("the layers of the macro die are
// extended by the suffix _MD").
const MDSuffix = "_MD"

// F2FLayerName is the name of the bonding via layer in combined stacks
// and in separated per-die layouts (the layer present in both GDSII
// parts).
const F2FLayerName = "F2F_VIA"

// F2FSpec captures the face-to-face via technology parameters. The
// defaults follow the paper (§V-2): 1 µm minimum pitch, 0.5×0.5 µm
// bump, 0.17 µm height, 44 mΩ and 1.0 fF at the typical corner.
type F2FSpec struct {
	Pitch  float64 // minimum bump pitch, µm
	Size   float64 // bump edge length, µm
	Height float64 // bump height, µm
	R      float64 // kΩ per bump
	C      float64 // fF per bump
}

// DefaultF2F returns the paper's F2F via technology.
func DefaultF2F() F2FSpec {
	return F2FSpec{
		Pitch:  1.0,
		Size:   0.5,
		Height: 0.17,
		R:      44e-6, // 44 mΩ in kΩ
		C:      1.0,
	}
}

// Combine builds the Macro-3D combined BEOL: the logic-die stack,
// followed by the F2F bonding via, followed by the macro-die stack in
// *reversed* physical order is not needed — in an F2F bond both dies
// face each other with their top metals, so from the logic die's
// perspective the macro die's topmost metal is nearest. The paper's
// layer order (M1→…→M6→F2F_VIA→M1_MD→…→M4_MD) keeps the macro-die
// layer names in their own die's order; routing distance-wise the
// stack is simply traversed through the F2F via, which is what a 2D
// engine needs. Macro-die layers are renamed with MDSuffix and marked
// MacroDie; their preferred directions are preserved.
func Combine(logic, macro *BEOL, f2f F2FSpec) (*BEOL, error) {
	if err := logic.Validate(); err != nil {
		return nil, fmt.Errorf("tech: logic stack invalid: %w", err)
	}
	if err := macro.Validate(); err != nil {
		return nil, fmt.Errorf("tech: macro stack invalid: %w", err)
	}
	if logic.F2FViaIndex() >= 0 || macro.F2FViaIndex() >= 0 {
		return nil, fmt.Errorf("tech: cannot combine stacks that already contain an F2F via")
	}
	c := &BEOL{Name: fmt.Sprintf("%s+%s", logic.Name, macro.Name)}
	c.Layers = append(c.Layers, logic.Layers...)
	c.Vias = append(c.Vias, logic.Vias...)
	c.Vias = append(c.Vias, Via{
		Name:  F2FLayerName,
		R:     f2f.R,
		C:     f2f.C,
		F2F:   true,
		Pitch: f2f.Pitch,
	})
	// The macro die is flipped face-down onto the logic die, so the
	// macro-die layer adjacent to the F2F interface is its TOP metal.
	// Traversal order from the logic die is therefore Mn_MD, …, M1_MD.
	// Keeping traversal order in the slice preserves the router's
	// "adjacent index = physically adjacent" invariant; names keep
	// their own-die numbering as the paper prescribes.
	for i := len(macro.Layers) - 1; i >= 0; i-- {
		l := macro.Layers[i]
		l.Name += MDSuffix
		l.MacroDie = true
		c.Layers = append(c.Layers, l)
		if i > 0 {
			v := macro.Vias[i-1]
			v.Name += MDSuffix
			c.Vias = append(c.Vias, v)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MacroDieName maps a single-die layer name onto its macro-die
// counterpart in this (combined) stack: "M3" → "M3_MD", validated to
// exist. Names already carrying the suffix pass through unchanged
// (geometry hardened over a combined stack is already in the combined
// frame), as does the F2F via name. Used when a block hardened on a
// plain single-die stack is re-instantiated on the macro die of an F2F
// stack — every pin and obstruction layer remaps through here.
func (b *BEOL) MacroDieName(layer string) (string, error) {
	if layer == F2FLayerName {
		return layer, nil
	}
	name := layer
	if !strings.HasSuffix(name, MDSuffix) {
		name += MDSuffix
	}
	if b.LayerIndex(name) < 0 {
		return "", fmt.Errorf("tech: stack %q has no macro-die layer %q", b.Name, name)
	}
	return name, nil
}

// Separate splits a combined stack back into the per-die layer-name
// sets used when writing the two production layouts. Both sets include
// the F2F via layer, mirroring the paper's "the F2F_VIA layer is
// included in both parts".
func Separate(combined *BEOL) (logicLayers, macroLayers []string, err error) {
	if combined.F2FViaIndex() < 0 {
		return nil, nil, fmt.Errorf("tech: %q is not a combined stack", combined.Name)
	}
	for _, l := range combined.Layers {
		if l.MacroDie {
			macroLayers = append(macroLayers, l.Name)
		} else {
			logicLayers = append(logicLayers, l.Name)
		}
	}
	logicLayers = append(logicLayers, F2FLayerName)
	macroLayers = append(macroLayers, F2FLayerName)
	return logicLayers, macroLayers, nil
}
