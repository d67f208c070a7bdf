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

	"repro/internal/logic"
)

// GateID identifies a gate (equivalently, the net the gate drives).
// IDs are dense indices into Circuit.Gates.
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

// Gate is one circuit element. Fanin order is significant for Mux2
// (sel, d0, d1), Tri (en, d), DFF (d, clk) and DLatch (d, en).
type Gate struct {
	Kind  Kind
	Name  string
	Fanin []GateID
	// Delay is the propagation delay from any input change to the output
	// change, in ticks. Event-driven engines require Delay >= 1; the
	// oblivious (cycle-based) engine ignores it.
	Delay Tick
}

// Adj is a compressed-sparse-row adjacency over gates: the neighbours of
// gate g are Idx[Off[g]:Off[g+1]], all rows contiguous in gate order.
type Adj struct {
	Off []int32 // len(Gates)+1 row offsets into Idx
	Idx []GateID
}

// Row returns gate g's neighbours. The slice aliases the circuit's
// storage and must not be written or appended to.
func (a *Adj) Row(g GateID) []GateID { return a.Idx[a.Off[g]:a.Off[g+1]] }

// Circuit is an immutable gate-level netlist.
//
// The connectivity is stored once, flat: FaninAdj and FanoutAdj hold every
// edge in two contiguous index arrays, and Gate.Fanin and Fanout[g] are
// sub-slices of them. The engines' per-event loops read the flat arrays
// (Adj.Row, Kinds, Delays) so one evaluation touches a few dense cache
// lines instead of a 64-byte Gate and a separately allocated fanin slice;
// everything else keeps the per-gate views.
type Circuit struct {
	// Gates is indexed by GateID.
	Gates []Gate
	// Fanout[g] lists the gates reading net g, in ascending ID order with
	// duplicates removed (a gate appears once even if it reads g twice).
	// It is FanoutAdj.Row(g) (nil when empty).
	Fanout [][]GateID
	// Inputs and Outputs list the primary input and output gates in
	// declaration order.
	Inputs  []GateID
	Outputs []GateID

	// FaninAdj rows are the gates' fanin lists in pin order; FanoutAdj
	// rows are the fanout lists described at Fanout.
	FaninAdj  Adj
	FanoutAdj Adj
	// Kinds[g] and Delays[g] are Gates[g].Kind and Gates[g].Delay, dense.
	Kinds  []Kind
	Delays []Tick

	byName map[string]GateID
}

// NumGates returns the number of gates (and nets).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// Gate returns the gate with the given ID.
func (c *Circuit) Gate(id GateID) *Gate { return &c.Gates[id] }

// ByName looks a gate up by name.
func (c *Circuit) ByName(name string) (GateID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MinDelay returns the smallest gate delay in the circuit (0 for an empty
// circuit). It bounds the lookahead available to conservative simulation.
func (c *Circuit) MinDelay() Tick {
	var min Tick
	for i := range c.Gates {
		if c.Gates[i].Kind.Source() {
			continue
		}
		d := c.Gates[i].Delay
		if min == 0 || d < min {
			min = d
		}
	}
	return min
}

// MaxDelay returns the largest gate delay in the circuit.
func (c *Circuit) MaxDelay() Tick {
	var max Tick
	for i := range c.Gates {
		if d := c.Gates[i].Delay; d > max {
			max = d
		}
	}
	return max
}

// New constructs a circuit directly from complete gate, input, and output
// lists, running the same validation and fanout computation as the
// builder. It is the path for programmatic netlist transformations (e.g.
// fault injection) that already have a consistent gate array, including
// feedback fanin references the incremental builder cannot express in one
// pass.
func New(gates []Gate, inputs, outputs []GateID) (*Circuit, error) {
	c := &Circuit{Gates: gates, Inputs: inputs, Outputs: outputs}
	if err := c.index(); err != nil {
		return nil, err
	}
	c.flatten()
	return c, nil
}

// FromFlat constructs a circuit over flat storage that already exists —
// the form a netlist has on the wire: dense kinds, delays and names, and
// the fanin adjacency in pin order. The arrays are adopted, not copied
// (Kinds, Delays and FaninAdj are the arguments, Gate.Fanin views them),
// and checked like any other construction: the input comes from outside
// the process, so nothing is indexed before it is bounded.
func FromFlat(kinds []Kind, delays []Tick, names []string, fanin Adj, inputs, outputs []GateID) (*Circuit, error) {
	n := len(kinds)
	if len(delays) != n || len(names) != n || len(fanin.Off) != n+1 {
		return nil, fmt.Errorf("circuit: flat arrays disagree: %d kinds, %d delays, %d names, %d offsets",
			n, len(delays), len(names), len(fanin.Off))
	}
	if fanin.Off[0] != 0 || int(fanin.Off[n]) != len(fanin.Idx) {
		return nil, fmt.Errorf("circuit: fanin offsets span [%d,%d] over %d pins", fanin.Off[0], fanin.Off[n], len(fanin.Idx))
	}
	gates := make([]Gate, n)
	for g := range gates {
		lo, hi := fanin.Off[g], fanin.Off[g+1]
		if lo > hi || int(hi) > len(fanin.Idx) {
			return nil, fmt.Errorf("circuit: gate %d has fanin offsets [%d,%d) over %d pins", g, lo, hi, len(fanin.Idx))
		}
		gates[g] = Gate{Kind: kinds[g], Name: names[g], Fanin: faninView(fanin.Idx, lo, hi), Delay: delays[g]}
	}
	c := &Circuit{Gates: gates, Inputs: inputs, Outputs: outputs, FaninAdj: fanin, Kinds: kinds, Delays: delays}
	if err := c.index(); err != nil {
		return nil, err
	}
	c.buildFanout()
	return c, nil
}

// index builds the name table and checks everything a complete gate list
// must satisfy: unique non-empty names, I/O lists inside the circuit, and
// validate's arity, reference and cycle rules.
func (c *Circuit) index() error {
	c.byName = make(map[string]GateID, len(c.Gates))
	for id := range c.Gates {
		name := c.Gates[id].Name
		if name == "" {
			return fmt.Errorf("circuit: gate %d has empty name", id)
		}
		if prev, dup := c.byName[name]; dup {
			return fmt.Errorf("circuit: duplicate gate name %q (gates %d and %d)", name, prev, id)
		}
		c.byName[name] = GateID(id)
	}
	for _, io := range [2][]GateID{c.Inputs, c.Outputs} {
		for _, g := range io {
			if g < 0 || int(g) >= len(c.Gates) {
				return fmt.Errorf("circuit: io list references undefined gate %d", g)
			}
		}
	}
	return c.validate()
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

// SetDelay overrides the delay of an already-declared gate.
func (b *Builder) SetDelay(id GateID, delay Tick) {
	if id < 0 || int(id) >= len(b.gates) {
		b.failf("circuit: SetDelay on undefined gate %d", id)
		return
	}
	b.gates[id].Delay = delay
}

// Build validates the netlist, computes fanout lists, and freezes the
// circuit. The builder must not be reused afterwards.
func (b *Builder) Build() (*Circuit, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	c := &Circuit{
		Gates:   b.gates,
		Inputs:  b.inputs,
		Outputs: b.outputs,
		byName:  b.byName,
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	c.flatten()
	return c, nil
}

// validate checks arities and fanin references.
func (c *Circuit) validate() error {
	for id := range c.Gates {
		g := &c.Gates[id]
		if !g.Kind.Valid() {
			return fmt.Errorf("circuit: gate %q: invalid kind", g.Name)
		}
		min, max := g.Kind.arity()
		n := len(g.Fanin)
		if n < min || (max >= 0 && n > max) {
			return fmt.Errorf("circuit: gate %q (%v): fanin count %d outside [%d,%d]",
				g.Name, g.Kind, n, min, max)
		}
		for _, f := range g.Fanin {
			if f < 0 || int(f) >= len(c.Gates) {
				return fmt.Errorf("circuit: gate %q references undefined gate %d", g.Name, f)
			}
		}
		if !g.Kind.Source() && g.Delay == 0 {
			// Zero delays are permitted at build time (the oblivious engine
			// does not use them) but flagged by CheckEventDriven below, so
			// nothing to do here.
			_ = g
		}
	}
	return c.checkCombinationalCycles()
}

// CheckEventDriven verifies the circuit satisfies the constraints of the
// event-driven engines: every non-source gate has delay >= 1 (the positive
// lookahead that two-phase timestep semantics and conservative null
// messages rely on).
func (c *Circuit) CheckEventDriven() error {
	for id := range c.Gates {
		g := &c.Gates[id]
		if !g.Kind.Source() && g.Delay == 0 {
			return fmt.Errorf("circuit: gate %q has zero delay; event-driven engines require delay >= 1", g.Name)
		}
	}
	return nil
}

// checkCombinationalCycles rejects cycles that pass only through
// combinational gates. Cycles through DFFs are legal (that is what
// sequential circuits are); purely combinational feedback with discrete
// delays can oscillate forever, so it is rejected at build time.
// Cross-coupled latch structures must therefore be expressed with the
// DLatch primitive.
func (c *Circuit) checkCombinationalCycles() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(c.Gates))
	// Iterative DFS to survive deep circuits.
	type frame struct {
		id   GateID
		next int
	}
	var stack []frame
	for start := range c.Gates {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{GateID(start), 0})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			g := &c.Gates[f.id]
			// Sequential gates break combinational cycles: do not traverse
			// through their fanin (their output is a state element).
			if g.Kind.Sequential() || f.next >= len(g.Fanin) {
				color[f.id] = black
				stack = stack[:len(stack)-1]
				continue
			}
			child := g.Fanin[f.next]
			f.next++
			switch color[child] {
			case white:
				color[child] = gray
				stack = append(stack, frame{child, 0})
			case gray:
				return fmt.Errorf("circuit: combinational cycle through gate %q", c.Gates[child].Name)
			}
		}
	}
	return nil
}

// flatten builds the circuit's flat storage from the validated gate list:
// the fanin index array with its offsets, the dense kind and delay arrays,
// and the per-gate Gate.Fanin views into them; buildFanout derives the
// rest.
func (c *Circuit) flatten() {
	n := len(c.Gates)
	c.Kinds = make([]Kind, n)
	c.Delays = make([]Tick, n)
	inOff := make([]int32, n+1)
	pins := int32(0)
	for id := range c.Gates {
		g := &c.Gates[id]
		c.Kinds[id], c.Delays[id] = g.Kind, g.Delay
		inOff[id] = pins
		pins += int32(len(g.Fanin))
	}
	inOff[n] = pins
	inIdx := make([]GateID, pins)
	for id := range c.Gates {
		g := &c.Gates[id]
		lo, hi := inOff[id], inOff[id+1]
		copy(inIdx[lo:hi], g.Fanin)
		g.Fanin = faninView(inIdx, lo, hi)
	}
	c.FaninAdj = Adj{Off: inOff, Idx: inIdx}
	c.buildFanout()
}

// faninView is the Gate.Fanin slice for the row idx[lo:hi]: capped so an
// append cannot run into the next row, nil when the gate is a source.
func faninView(idx []GateID, lo, hi int32) []GateID {
	if lo == hi {
		return nil
	}
	return idx[lo:hi:hi]
}

// buildFanout derives FanoutAdj and the Fanout views from FaninAdj.
//
// Fanout rows come out ascending and deduplicated without a sort: gates
// are visited in ID order, so each row is filled in ascending order, and a
// gate reading one net through several pins is caught by remembering the
// last reader recorded for that net.
func (c *Circuit) buildFanout() {
	n := len(c.Gates)
	outOff := make([]int32, n+1)
	lastReader := make([]GateID, n)
	for i := range lastReader {
		lastReader[i] = -1
	}
	for id := 0; id < n; id++ {
		for _, f := range c.FaninAdj.Row(GateID(id)) {
			if lastReader[f] != GateID(id) {
				lastReader[f] = GateID(id)
				outOff[f+1]++
			}
		}
	}
	for g := 0; g < n; g++ {
		outOff[g+1] += outOff[g]
	}
	outIdx := make([]GateID, outOff[n])
	fill := make([]int32, n) // next free position of each fanout row
	copy(fill, outOff)
	for i := range lastReader {
		lastReader[i] = -1
	}
	for id := 0; id < n; id++ {
		for _, f := range c.FaninAdj.Row(GateID(id)) {
			if lastReader[f] != GateID(id) {
				lastReader[f] = GateID(id)
				outIdx[fill[f]] = GateID(id)
				fill[f]++
			}
		}
	}
	c.FanoutAdj = Adj{Off: outOff, Idx: outIdx}
	c.Fanout = make([][]GateID, n)
	for g := range c.Fanout {
		if lo, hi := outOff[g], outOff[g+1]; lo < hi {
			c.Fanout[g] = outIdx[lo:hi:hi]
		}
	}
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
	s := Stats{
		Gates:     len(c.Gates),
		ByKind:    make(map[Kind]int),
		Inputs:    len(c.Inputs),
		Outputs:   len(c.Outputs),
		TotalNets: len(c.Gates),
		MinDelay:  c.MinDelay(),
		MaxDelay:  c.MaxDelay(),
	}
	totalFanout := 0
	for id := range c.Gates {
		g := &c.Gates[id]
		s.ByKind[g.Kind]++
		s.TotalConns += len(g.Fanin)
		if g.Kind == DFF {
			s.FlipFlops++
		}
		if g.Kind == DLatch {
			s.Latches++
		}
		fo := len(c.Fanout[id])
		totalFanout += fo
		if fo > s.MaxFanout {
			s.MaxFanout = fo
		}
	}
	if len(c.Gates) > 0 {
		s.AvgFanout = float64(totalFanout) / float64(len(c.Gates))
	}
	if levels, err := c.Levelize(); err == nil {
		s.CombDepth = len(levels)
	}
	return s
}
