// Package circuit defines the gate-level netlist model shared by every
// simulation engine.
//
// A circuit is a directed graph of gates. Each gate drives exactly one net,
// identified with the gate's ID, so "net value" and "gate output value" are
// interchangeable. Multi-driver buses are modeled explicitly with Tri
// drivers feeding a Resolve node, which keeps every net single-driver while
// still exercising the IEEE 1164 resolution function.
//
// Circuits are immutable once built; all mutable simulation state (net
// values, flip-flop internals) lives in the engines. That split is what
// allows one circuit to be shared by concurrently running logical
// processes, and what makes Time Warp state saving cheap.
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/logic"
)

// GateID identifies a gate (equivalently, the net the gate drives).
// IDs are dense indices into the circuit's per-gate arrays.
type GateID int32

// Tick is a point in (or duration of) discrete simulated time.
type Tick uint64

// Kind enumerates the supported gate types.
type Kind uint8

// Gate kinds. Input and the constants are sources; Output is a sink marker
// with buffer semantics; DFF and DLatch are the sequential elements.
const (
	Input Kind = iota
	Const0
	Const1
	ConstX
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Mux2    // fanin: sel, d0, d1
	Tri     // fanin: en, d; drives Z when disabled
	Resolve // wired net: resolves all fanin drivers
	DFF     // fanin: d, clk; rising-edge triggered
	DLatch  // fanin: d, en; transparent while en is high
	Output  // fanin: 1; marks a primary output, buffer semantics

	numKinds
)

var kindNames = [numKinds]string{
	"INPUT", "CONST0", "CONST1", "CONSTX", "BUF", "NOT", "AND", "NAND",
	"OR", "NOR", "XOR", "XNOR", "MUX2", "TRI", "RESOLVE", "DFF", "DLATCH",
	"OUTPUT",
}

// String returns the conventional upper-case gate name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k names a defined gate kind.
func (k Kind) Valid() bool { return k < numKinds }

// Sequential reports whether gates of this kind hold state across time.
func (k Kind) Sequential() bool { return k == DFF || k == DLatch }

// Source reports whether gates of this kind have no fanin.
func (k Kind) Source() bool {
	return k == Input || k == Const0 || k == Const1 || k == ConstX
}

// arity returns the required fanin count; min == -1 means "at least min2".
func (k Kind) arity() (min, max int) {
	switch k {
	case Input, Const0, Const1, ConstX:
		return 0, 0
	case Buf, Not, Output:
		return 1, 1
	case And, Nand, Or, Nor, Xor, Xnor:
		return 1, -1 // n-ary, at least one input
	case Mux2:
		return 3, 3
	case Tri, DFF, DLatch:
		return 2, 2
	case Resolve:
		return 1, -1
	}
	return 0, 0
}

// Gate is one circuit element as a record: what Builder holds, and what
// Circuit.Gate assembles from the flat arrays. Fanin order is
// significant for Mux2 (sel, d0, d1), Tri (en, d), DFF (d, clk) and
// DLatch (d, en).
type Gate struct {
	Kind  Kind
	Name  string
	Fanin []GateID
	// Delay is the propagation delay from any input change to the output
	// change, in ticks. Event-driven engines require Delay >= 1; the
	// oblivious (cycle-based) engine ignores it.
	Delay Tick
}

// GateKind is one entry of Circuit.Gates: a gate's kind and nothing else.
type GateKind struct{ Kind Kind }

// Adj is a compressed-sparse-row adjacency over gates: the neighbours of
// gate g are Idx[Off[g]:Off[g+1]], all rows contiguous in gate order.
type Adj struct {
	Off []int32 // one row offset per gate, plus the end, into Idx
	Idx []GateID
}

// Row returns gate g's neighbours. The slice aliases the circuit's
// storage and must not be written or appended to.
func (a *Adj) Row(g GateID) []GateID { return a.Idx[a.Off[g]:a.Off[g+1]] }

// Circuit is an immutable gate-level netlist.
//
// Every gate attribute is stored once, flat, in gate order: the dense
// Kinds and Delays, every edge in the two index arrays of FaninAdj and
// FanoutAdj, and every name in one string read through Name. One
// evaluation touches a few dense cache lines, and a gate costs no object
// of its own.
type Circuit struct {
	// Gates repeats Kinds, one GateKind per gate, for the readers that
	// still index it.
	Gates []GateKind
	// Inputs and Outputs list the primary input and output gates in
	// declaration order.
	Inputs  []GateID
	Outputs []GateID

	// FaninAdj rows are the gates' fanin lists in pin order. FanoutAdj
	// row g lists the gates reading net g, in ascending ID order with
	// duplicates removed (a gate appears once even if it reads g twice).
	FaninAdj  Adj
	FanoutAdj Adj
	// Kinds[g] and Delays[g] are gate g's kind and propagation delay.
	Kinds  []Kind
	Delays []Tick
	// Levels is the circuit's levelization, computed once at construction
	// (see levelize): every non-source gate in exactly one level, each
	// level in ascending ID order, the sequential gates in the last. Like
	// the arrays above it is shared and must not be written.
	Levels [][]GateID

	// names holds every gate's name back to back: gate g's is
	// names[nameOff[g]:nameOff[g+1]].
	names   string
	nameOff []int32
	byName  map[string]GateID
}

// NumGates returns the number of gates (and nets).
func (c *Circuit) NumGates() int { return len(c.Kinds) }

// Name returns gate g's name.
func (c *Circuit) Name(g GateID) string { return c.names[c.nameOff[g]:c.nameOff[g+1]] }

// Gate assembles gate id's record from the flat arrays. Its Fanin is the
// gate's FaninAdj row, nil for a source and capped so that an append
// copies; like the row, it must not be written.
func (c *Circuit) Gate(id GateID) Gate {
	g := Gate{Kind: c.Kinds[id], Name: c.Name(id), Delay: c.Delays[id]}
	if row := c.FaninAdj.Row(id); len(row) > 0 {
		g.Fanin = row[:len(row):len(row)]
	}
	return g
}

// ByName looks a gate up by name.
func (c *Circuit) ByName(name string) (GateID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MinDelay returns the smallest gate delay in the circuit (0 for an empty
// circuit). It bounds the lookahead available to conservative simulation.
func (c *Circuit) MinDelay() Tick {
	var min Tick
	for g, d := range c.Delays {
		if !c.Kinds[g].Source() && (min == 0 || d < min) {
			min = d
		}
	}
	return min
}

// MaxDelay returns the largest gate delay in the circuit.
func (c *Circuit) MaxDelay() Tick {
	var hi Tick
	for _, d := range c.Delays {
		hi = max(hi, d)
	}
	return hi
}

// fromGates copies a gate list into flat storage and hands it to FromFlat,
// with the name table byName (nil to build one).
func fromGates(gates []Gate, inputs, outputs []GateID, byName map[string]GateID) (*Circuit, error) {
	n := len(gates)
	kinds := make([]Kind, n)
	delays := make([]Tick, n)
	faninOff := make([]int32, n+1)
	nameOff := make([]int32, n+1)
	for i := range gates {
		g := &gates[i]
		kinds[i], delays[i] = g.Kind, g.Delay
		faninOff[i+1] = faninOff[i] + int32(len(g.Fanin))
		nameOff[i+1] = nameOff[i] + int32(len(g.Name))
	}
	idx := make([]GateID, 0, faninOff[n])
	var names strings.Builder
	names.Grow(int(nameOff[n]))
	for i := range gates {
		idx = append(idx, gates[i].Fanin...)
		names.WriteString(gates[i].Name)
	}
	return FromFlat(kinds, delays, names.String(), nameOff, Adj{Off: faninOff, Idx: idx}, inputs, outputs, byName)
}

// FromFlat constructs a circuit over flat storage — the form a netlist
// has on the wire or straight out of the .bench reader: dense kinds and
// delays, the names back to back in one string with an offset per gate
// plus the end, and the fanin adjacency in pin order. The arrays and the
// string are adopted, not copied. It is the one checked path every
// constructor ends in: the input may come from outside the process, so
// nothing is indexed before it is bounded. A caller that has already
// built the name table passes it as byName, which is adopted after the
// same checks (it must map exactly the gates' names, each to its own
// gate); with byName nil the table is built here. The circuit's fanout
// adjacency and levelization are derived last, and the levelization
// refuses a combinational cycle.
func FromFlat(kinds []Kind, delays []Tick, names string, nameOff []int32, fanin Adj, inputs, outputs []GateID, byName map[string]GateID) (*Circuit, error) {
	n := len(kinds)
	if len(delays) != n || len(nameOff) != n+1 || len(fanin.Off) != n+1 {
		return nil, fmt.Errorf("circuit: flat arrays disagree: %d kinds, %d delays, %d name offsets, %d fanin offsets",
			n, len(delays), len(nameOff), len(fanin.Off))
	}
	if fanin.Off[0] != 0 || int(fanin.Off[n]) != len(fanin.Idx) {
		return nil, fmt.Errorf("circuit: fanin offsets span [%d,%d] over %d pins", fanin.Off[0], fanin.Off[n], len(fanin.Idx))
	}
	if nameOff[0] != 0 || int(nameOff[n]) != len(names) {
		return nil, fmt.Errorf("circuit: name offsets span [%d,%d] over %d bytes", nameOff[0], nameOff[n], len(names))
	}
	c := &Circuit{Inputs: inputs, Outputs: outputs, FaninAdj: fanin, Kinds: kinds, Delays: delays, names: names, nameOff: nameOff}
	if err := c.check(byName); err != nil {
		return nil, err
	}
	c.Gates = make([]GateKind, n)
	for g, k := range kinds {
		c.Gates[g].Kind = k
	}
	scratch := make([]int32, n) // shared by the two derivations
	c.buildFanout(scratch)
	if err := c.levelize(scratch); err != nil {
		return nil, err
	}
	return c, nil
}

// check installs the name table and checks everything a netlist must
// satisfy, offsets whose ends FromFlat has bounded: every gate's fanin
// and name offsets in order, unique non-empty names, I/O lists that name
// Input and Output gates of the circuit, and each gate's kind, arity and
// fanin references. A given byName is adopted only after the same check:
// it must hold exactly the gates' names, each mapped to its own gate.
func (c *Circuit) check(byName map[string]GateID) error {
	n := len(c.Kinds)
	for g := 0; g < n; g++ {
		if lo, hi := c.FaninAdj.Off[g], c.FaninAdj.Off[g+1]; lo > hi {
			return fmt.Errorf("circuit: gate %d has fanin offsets [%d,%d) over %d pins", g, lo, hi, len(c.FaninAdj.Idx))
		}
		switch lo, hi := c.nameOff[g], c.nameOff[g+1]; {
		case lo > hi:
			return fmt.Errorf("circuit: gate %d has name offsets [%d,%d) over %d bytes", g, lo, hi, len(c.names))
		case lo == hi:
			return fmt.Errorf("circuit: gate %d has empty name", g)
		}
	}
	if byName == nil {
		byName = make(map[string]GateID, n)
		for id := 0; id < n; id++ {
			name := c.Name(GateID(id))
			if byName[name] = GateID(id); len(byName) <= id {
				prev := 0
				for c.Name(GateID(prev)) != name {
					prev++
				}
				return fmt.Errorf("circuit: duplicate gate name %q (gates %d and %d)", name, prev, id)
			}
		}
	} else {
		// A table of n entries, each mapping a gate's name to that gate,
		// maps n distinct gates, so it maps every gate's name to its own
		// gate, and no two gates share a name.
		if len(byName) != n {
			return fmt.Errorf("circuit: name table has %d entries for %d gates", len(byName), n)
		}
		for name, g := range byName {
			if g < 0 || int(g) >= n || c.Name(g) != name {
				return fmt.Errorf("circuit: name table maps %q to gate %d", name, g)
			}
		}
	}
	c.byName = byName
	for _, io := range [2]struct {
		list []GateID
		kind Kind
	}{{c.Inputs, Input}, {c.Outputs, Output}} {
		for _, g := range io.list {
			if g < 0 || int(g) >= n {
				return fmt.Errorf("circuit: io list references undefined gate %d", g)
			}
			if k := c.Kinds[g]; k != io.kind {
				return fmt.Errorf("circuit: gate %q (%v) listed as %v", c.Name(g), k, io.kind)
			}
		}
	}
	for id, k := range c.Kinds {
		g := GateID(id)
		if !k.Valid() {
			return fmt.Errorf("circuit: gate %q: invalid kind", c.Name(g))
		}
		fanin := c.FaninAdj.Row(g)
		min, max := k.arity()
		if len(fanin) < min || (max >= 0 && len(fanin) > max) {
			return fmt.Errorf("circuit: gate %q (%v): fanin count %d outside [%d,%d]",
				c.Name(g), k, len(fanin), min, max)
		}
		for _, f := range fanin {
			if f < 0 || int(f) >= n {
				return fmt.Errorf("circuit: gate %q references undefined gate %d", c.Name(g), f)
			}
		}
	}
	return nil
}

// Builder incrementally constructs a Circuit. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	gates   []Gate
	inputs  []GateID
	outputs []GateID
	byName  map[string]GateID
	errs    []error
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]GateID)}
}

// failf records a construction error; Build reports the first one.
func (b *Builder) failf(format string, args ...any) GateID {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return -1
}

// add appends a gate, enforcing unique non-empty names.
func (b *Builder) add(g Gate) GateID {
	if g.Name == "" {
		return b.failf("circuit: gate %d has empty name", len(b.gates))
	}
	if prev, dup := b.byName[g.Name]; dup {
		return b.failf("circuit: duplicate gate name %q (gates %d and %d)",
			g.Name, prev, len(b.gates))
	}
	id := GateID(len(b.gates))
	b.gates = append(b.gates, g)
	b.byName[g.Name] = id
	return id
}

// Input declares a primary input with unit delay.
func (b *Builder) Input(name string) GateID {
	id := b.add(Gate{Kind: Input, Name: name, Delay: 1})
	if id >= 0 {
		b.inputs = append(b.inputs, id)
	}
	return id
}

// Const declares a constant-source gate for v (one of 0, 1, X).
func (b *Builder) Const(name string, v logic.Value) GateID {
	switch v {
	case logic.Zero:
		return b.add(Gate{Kind: Const0, Name: name, Delay: 1})
	case logic.One:
		return b.add(Gate{Kind: Const1, Name: name, Delay: 1})
	default:
		return b.add(Gate{Kind: ConstX, Name: name, Delay: 1})
	}
}

// Gate declares a gate of the given kind with unit delay.
func (b *Builder) Gate(kind Kind, name string, fanin ...GateID) GateID {
	return b.GateDelay(kind, name, 1, fanin...)
}

// GateDelay declares a gate with an explicit propagation delay.
func (b *Builder) GateDelay(kind Kind, name string, delay Tick, fanin ...GateID) GateID {
	if !kind.Valid() {
		return b.failf("circuit: invalid kind for gate %q", name)
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(b.gates) {
			return b.failf("circuit: gate %q references undefined fanin %d", name, f)
		}
	}
	return b.add(Gate{Kind: kind, Name: name, Fanin: append([]GateID(nil), fanin...), Delay: delay})
}

// Output declares a primary output gate observing src.
func (b *Builder) Output(name string, src GateID) GateID {
	id := b.GateDelay(Output, name, 1, src)
	if id >= 0 {
		b.outputs = append(b.outputs, id)
	}
	return id
}

// SetFanin replaces the fanin of an already-declared gate. It exists so
// that feedback structures (flip-flops in loops) can be wired after both
// endpoints are declared; arity and reference checks still happen at Build.
func (b *Builder) SetFanin(id GateID, fanin []GateID) {
	if id < 0 || int(id) >= len(b.gates) {
		b.failf("circuit: SetFanin on undefined gate %d", id)
		return
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(b.gates) {
			b.failf("circuit: SetFanin on gate %q references undefined gate %d", b.gates[id].Name, f)
			return
		}
	}
	b.gates[id].Fanin = append([]GateID(nil), fanin...)
}

// FaninOf returns the current fanin of an already-declared gate (nil for
// out-of-range IDs). Generators use it to inspect partially built netlists.
func (b *Builder) FaninOf(id GateID) []GateID {
	if id < 0 || int(id) >= len(b.gates) {
		return nil
	}
	return b.gates[id].Fanin
}

// Build checks the netlist and freezes it into a circuit, adopting the
// builder's name table. The builder must not be reused afterwards.
func (b *Builder) Build() (*Circuit, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	return fromGates(b.gates, b.inputs, b.outputs, b.byName)
}

// CheckEventDriven verifies the circuit satisfies the constraints of the
// event-driven engines: every non-source gate has delay >= 1 (the positive
// lookahead that two-phase timestep semantics and conservative null
// messages rely on).
func (c *Circuit) CheckEventDriven() error {
	for id, k := range c.Kinds {
		if !k.Source() && c.Delays[id] == 0 {
			return fmt.Errorf("circuit: gate %q has zero delay; event-driven engines require delay >= 1", c.Name(GateID(id)))
		}
	}
	return nil
}

// buildFanout derives FanoutAdj from FaninAdj, using the first n entries
// of scratch.
//
// Fanout rows come out ascending and deduplicated without a sort: gates
// are visited in ID order, so each row is filled in ascending order, and a
// gate reading one net through several pins is caught by remembering the
// last reader recorded for that net.
func (c *Circuit) buildFanout(scratch []int32) {
	n := len(c.Kinds)
	off := make([]int32, n+1)
	lastReader := scratch[:n]
	var idx []GateID
	for pass := 0; pass < 2; pass++ {
		for i := range lastReader {
			lastReader[i] = -1
		}
		for id := 0; id < n; id++ {
			for _, f := range c.FaninAdj.Row(GateID(id)) {
				if lastReader[f] == int32(id) {
					continue
				}
				lastReader[f] = int32(id)
				if idx == nil {
					off[f+1]++
				} else {
					idx[off[f]] = GateID(id)
					off[f]++
				}
			}
		}
		if idx == nil {
			// Row f starts at off[f]. The second pass fills it, moving
			// off[f] to its end, where row f+1 starts; a shift by one
			// then restores the offsets.
			for g := 0; g < n; g++ {
				off[g+1] += off[g]
			}
			idx = make([]GateID, off[n])
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	c.FanoutAdj = Adj{Off: off, Idx: idx}
}

// Stats summarizes circuit structure; the paper lists circuit structure as
// one of the five primary performance factors, so the experiment harness
// reports these alongside results.
type Stats struct {
	Gates      int
	ByKind     map[Kind]int
	Inputs     int
	Outputs    int
	FlipFlops  int
	Latches    int
	MaxFanout  int
	AvgFanout  float64
	CombDepth  int // longest combinational path, in gates
	MinDelay   Tick
	MaxDelay   Tick
	TotalNets  int
	TotalConns int // total fanin pin count
}

// ComputeStats derives structure statistics.
func (c *Circuit) ComputeStats() Stats {
	n := len(c.Kinds)
	s := Stats{
		Gates:      n,
		ByKind:     make(map[Kind]int),
		Inputs:     len(c.Inputs),
		Outputs:    len(c.Outputs),
		TotalNets:  n,
		MinDelay:   c.MinDelay(),
		MaxDelay:   c.MaxDelay(),
		CombDepth:  len(c.Levels),
		TotalConns: len(c.FaninAdj.Idx),
	}
	for id, k := range c.Kinds {
		s.ByKind[k]++
		if k == DFF {
			s.FlipFlops++
		}
		if k == DLatch {
			s.Latches++
		}
		s.MaxFanout = max(s.MaxFanout, len(c.FanoutAdj.Row(GateID(id))))
	}
	if n > 0 {
		s.AvgFanout = float64(len(c.FanoutAdj.Idx)) / float64(n)
	}
	return s
}
