package netlist

import (
	"fmt"
	"strings"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/slab"
)

// Copy is one replica of a source design inside a composed one: the tag
// its records' names are prefixed with, and how far it is translated.
type Copy struct {
	Tag    string
	Offset geom.Point
}

// Composer fills an empty design with tagged copies of a source design's
// records, and a few records of its own, without a by-name duplicate
// check per record: it admits only names it can prove new. A copied
// record is named tag+name. The tags are prefix-free, so two such names
// are equal only under one tag and for one source name; a source design's
// names are unique per kind; and a (copy, source record) pair is admitted
// once — instances and nets in ascending order of copy, then source ID,
// ports through a table. A record of the composer's own carries a name no
// tag is a prefix of, compared with the few others of its kind.
//
// The design's indexes stay unbuilt, to be derived from the records if a
// by-name use ever asks. Should one ask midway, the composer finds them
// built and keeps them current, duplicate check included.
type Composer struct {
	d, src *Design
	copies []Copy
	names  slab.Names

	nextInst, nextNet int      // the lowest copy*len(source records)+ID still admissible
	ports             []*Port  // by copy*len(src.Ports)+ID
	ownPorts, ownNets []string // names outside the tag scheme
}

// Compose starts a bulk composition of d, which must be empty, out of
// copies of src. It fails when a tag is a prefix of another (equal tags
// included): names under the two could collide.
func (d *Design) Compose(src *Design, copies []Copy) (*Composer, error) {
	if len(d.Instances)+len(d.Nets)+len(d.Ports) != 0 {
		return nil, fmt.Errorf("netlist: compose into %q, which is not empty", d.Name)
	}
	for i, a := range copies {
		for j, b := range copies {
			if i != j && strings.HasPrefix(b.Tag, a.Tag) {
				return nil, fmt.Errorf("netlist: compose: tag %q is a prefix of tag %q", a.Tag, b.Tag)
			}
		}
	}
	d.byName.Store(nil)
	d.base = nameIndex{}
	return &Composer{
		d: d, src: src, copies: copies,
		ports: make([]*Port, len(copies)*len(src.Ports)),
	}, nil
}

// Instance adds copy c of a source instance: the source's master and
// placement state, translated.
func (b *Composer) Instance(c int, src *Instance) *Instance {
	key := c*len(b.src.Instances) + src.ID
	if !b.src.owns(src) || key < b.nextInst {
		panic(fmt.Sprintf("netlist: compose: instance %q of copy %d is out of order or not the source's", src.Name, c))
	}
	b.nextInst = key + 1
	cp := b.copies[c]
	inst := b.d.addInstance(b.d.byName.Load(), b.names.Concat(cp.Tag, src.Name), src.Master)
	inst.Loc, inst.Orient, inst.Die = src.Loc.Add(cp.Offset), src.Orient, src.Die
	inst.Fixed, inst.Placed = src.Fixed, src.Placed
	return inst
}

// Net adds copy c's net of a source net, over the pins the caller mapped.
func (b *Composer) Net(c int, src *Net, driver PinRef, sinks ...PinRef) *Net {
	key := c*len(b.src.Nets) + src.ID
	if src.ID >= len(b.src.Nets) || b.src.Nets[src.ID] != src || key < b.nextNet {
		panic(fmt.Sprintf("netlist: compose: net %q of copy %d is out of order or not the source's", src.Name, c))
	}
	b.nextNet = key + 1
	return b.d.addNet(b.d.byName.Load(), b.names.Concat(b.copies[c].Tag, src.Name), driver, sinks)
}

// Port returns copy c's port of a source port — the source's attributes,
// translated — adding it on the first request.
func (b *Composer) Port(c int, src *Port) *Port {
	if src.ID >= len(b.src.Ports) || b.src.Ports[src.ID] != src {
		panic(fmt.Sprintf("netlist: compose: port %q is not the source's", src.Name))
	}
	slot := &b.ports[c*len(b.src.Ports)+src.ID]
	if *slot == nil {
		cp := b.copies[c]
		p := b.d.addPort(b.d.byName.Load(), b.names.Concat(cp.Tag, src.Name), src.Dir)
		p.Loc, p.Layer = src.Loc.Add(cp.Offset), src.Layer
		p.HalfCycle, p.ExtCap, p.ExtDelay = src.HalfCycle, src.ExtCap, src.ExtDelay
		*slot = p
	}
	return *slot
}

// AddPort adds a port of the composed design's own.
func (b *Composer) AddPort(name string, dir cell.PinDir) *Port {
	b.ownPorts = b.own(b.ownPorts, "port", name)
	return b.d.addPort(b.d.byName.Load(), name, dir)
}

// AddNet adds a net of the composed design's own.
func (b *Composer) AddNet(name string, driver PinRef, sinks ...PinRef) *Net {
	b.ownNets = b.own(b.ownNets, "net", name)
	return b.d.addNet(b.d.byName.Load(), name, driver, sinks)
}

// own admits a name outside the tag scheme.
func (b *Composer) own(have []string, kind, name string) []string {
	for _, c := range b.copies {
		if strings.HasPrefix(name, c.Tag) {
			panic(fmt.Sprintf("netlist: compose: %s %q carries the tag %q of a copy", kind, name, c.Tag))
		}
	}
	for _, h := range have {
		if h == name {
			panic(fmt.Sprintf("netlist: duplicate %s %q", kind, name))
		}
	}
	return append(have, name)
}
