package circuit_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// refNet is the part of a Circuit that the two passes below read, built
// from a raw gate list by direct loops rather than by the package's
// constructors.
type refNet struct {
	Gates     []circuit.Gate
	Kinds     []circuit.Kind
	FaninAdj  circuit.Adj
	FanoutAdj circuit.Adj
}

func newRefNet(gates []circuit.Gate) *refNet {
	c := &refNet{Gates: gates, Kinds: make([]circuit.Kind, len(gates))}
	fanout := make([][]circuit.GateID, len(gates))
	c.FaninAdj.Off = []int32{0}
	for id, g := range gates {
		c.Kinds[id] = g.Kind
		c.FaninAdj.Idx = append(c.FaninAdj.Idx, g.Fanin...)
		c.FaninAdj.Off = append(c.FaninAdj.Off, int32(len(c.FaninAdj.Idx)))
		for _, f := range g.Fanin {
			if row := fanout[f]; len(row) == 0 || row[len(row)-1] != circuit.GateID(id) {
				fanout[f] = append(row, circuit.GateID(id))
			}
		}
	}
	c.FanoutAdj.Off = []int32{0}
	for _, row := range fanout {
		c.FanoutAdj.Idx = append(c.FanoutAdj.Idx, row...)
		c.FanoutAdj.Off = append(c.FanoutAdj.Off, int32(len(c.FanoutAdj.Idx)))
	}
	return c
}

// levelizeReference is the levelization a circuit carried before it was
// computed at construction: Levels must equal its result.
func levelizeReference(gates []circuit.Gate) ([][]circuit.GateID, error) {
	return newRefNet(gates).levelize()
}

// cyclesReference is the depth-first combinational-cycle check that
// construction ran before levelization became the check: construction
// must refuse exactly the gate lists it refuses.
func cyclesReference(gates []circuit.Gate) error {
	return newRefNet(gates).cycles()
}

// levelize is the former Circuit.Levelize, verbatim but for its receiver
// and the package qualifiers.
func (c *refNet) levelize() ([][]circuit.GateID, error) {
	n := len(c.Kinds)
	level := make([]int32, n)
	indeg := make([]int32, n)
	// Combinational in-degree: number of distinct fanin nets whose driver
	// is a non-source combinational gate. Distinctness matters because the
	// fanout lists used for decrementing are deduplicated: a gate reading
	// the same net through two pins is only one graph edge. lastReader[f]
	// is the last gate that counted net f, so a repeat pin is skipped.
	lastReader := make([]circuit.GateID, n)
	for i := range lastReader {
		lastReader[i] = -1
	}
	for id := 0; id < n; id++ {
		if c.Kinds[id].Source() {
			continue
		}
		for _, f := range c.FaninAdj.Row(circuit.GateID(id)) {
			if lastReader[f] == circuit.GateID(id) {
				continue
			}
			lastReader[f] = circuit.GateID(id)
			if k := c.Kinds[f]; !k.Source() && !k.Sequential() {
				indeg[id]++
			}
		}
	}
	// Kahn's algorithm over combinational edges.
	queue := make([]circuit.GateID, 0, n)
	for id := 0; id < n; id++ {
		if !c.Kinds[id].Source() && indeg[id] == 0 {
			queue = append(queue, circuit.GateID(id))
			level[id] = 1
		}
	}
	var maxLevel int32
	for head := 0; head < len(queue); head++ {
		g := queue[head]
		if level[g] > maxLevel {
			maxLevel = level[g]
		}
		if c.Kinds[g].Sequential() {
			// Do not propagate through state elements.
			continue
		}
		for _, out := range c.FanoutAdj.Row(g) {
			if c.Kinds[out].Source() {
				continue
			}
			if l := level[g] + 1; l > level[out] {
				level[out] = l
			}
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, out)
			}
		}
	}
	want := 0
	for id := 0; id < n; id++ {
		if !c.Kinds[id].Source() {
			want++
		}
	}
	if len(queue) != want {
		return nil, fmt.Errorf("circuit: levelize: combinational cycle (processed %d of %d gates)", len(queue), want)
	}
	// Pin sequential gates to a dedicated final level.
	seqLevel := maxLevel + 1
	for id := 0; id < n; id++ {
		if c.Kinds[id].Sequential() {
			level[id] = seqLevel
			maxLevel = seqLevel
		}
	}
	// Carve the levels out of one array, each in ascending ID order, and
	// drop empty ones (possible when the only gates were sequential).
	off := make([]int32, maxLevel+1)
	for id := 0; id < n; id++ {
		if !c.Kinds[id].Source() {
			off[level[id]]++
		}
	}
	levels := make([][]circuit.GateID, 0, maxLevel)
	for l, at := int32(1), int32(0); l <= maxLevel; l++ {
		size := off[l]
		off[l] = at
		at += size
	}
	for id := 0; id < n; id++ {
		if !c.Kinds[id].Source() {
			queue[off[level[id]]] = circuit.GateID(id)
			off[level[id]]++
		}
	}
	lo := int32(0)
	for l := int32(1); l <= maxLevel; l++ {
		if hi := off[l]; hi > lo {
			levels = append(levels, queue[lo:hi:hi])
			lo = hi
		}
	}
	return levels, nil
}

// cycles is the former Circuit.checkCombinationalCycles, verbatim but for
// its receiver and the package qualifiers.
func (c *refNet) cycles() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(c.Gates))
	// Iterative DFS to survive deep circuits.
	type frame struct {
		id   circuit.GateID
		next int
	}
	var stack []frame
	for start := range c.Gates {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{circuit.GateID(start), 0})
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

func equalLevels(a, b [][]circuit.GateID) bool {
	return slices.EqualFunc(a, b, func(x, y []circuit.GateID) bool { return slices.Equal(x, y) })
}

// onCombinationalCycle reports whether gate g reaches itself through
// combinational gates only: g reads a net whose driver, and so on through
// non-sequential drivers, reads g.
func onCombinationalCycle(gates []circuit.Gate, g circuit.GateID) bool {
	if gates[g].Kind.Sequential() {
		return false
	}
	seen := make([]bool, len(gates))
	stack := []circuit.GateID{g}
	for len(stack) > 0 {
		at := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range gates[at].Fanin {
			if f == g {
				return true
			}
			if !seen[f] && !gates[f].Kind.Sequential() {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	return false
}

// decodeGates turns fuzz bytes into a gate list that passes every check
// but the cycle check: each kind gets a fanin count inside its arity, and
// each pin names any gate of the list, itself and later gates included,
// so back edges, self-loops, repeated pins and loops through DFFs and
// DLatches all occur. Missing bytes read as zero.
func decodeGates(data []byte) (gates []circuit.Gate, inputs, outputs []circuit.GateID) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%16
	for id := 0; id < n; id++ {
		kind := circuit.Kind(next() % int(circuit.Output+1))
		pins := 0
		switch kind {
		case circuit.Buf, circuit.Not, circuit.Output:
			pins = 1
		case circuit.Tri, circuit.DFF, circuit.DLatch:
			pins = 2
		case circuit.Mux2:
			pins = 3
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Resolve:
			pins = 1 + next()%4
		}
		g := circuit.Gate{Kind: kind, Name: "g" + strconv.Itoa(id), Delay: 1}
		for range pins {
			g.Fanin = append(g.Fanin, circuit.GateID(next()%n))
		}
		switch kind {
		case circuit.Input:
			inputs = append(inputs, circuit.GateID(id))
		case circuit.Output:
			outputs = append(outputs, circuit.GateID(id))
		}
		gates = append(gates, g)
	}
	return gates, inputs, outputs
}

// FuzzLevels checks construction's levelization against the reference
// passes: FromFlat refuses exactly the gate lists the depth-first check
// refuses, a refusal names a gate on a combinational cycle, and an
// accepted circuit's Levels equal the reference levelization.
func FuzzLevels(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{2, 0, 5, 2, 5, 1},                        // two NOTs in a loop
		{1, 0, 6, 2, 1, 1, 0},                     // an AND reading itself through two pins
		{3, 0, 15, 2, 0, 5, 1, 17, 2},             // a DFF loop
		{3, 0, 16, 2, 0, 5, 1, 17, 2},             // a DLatch loop
		{3, 0, 4, 2, 7, 1, 3, 0, 5, 2},            // a BUF downstream of a loop, first in ID order
		{3, 0, 0, 10, 2, 0, 0, 1, 12, 2, 0, 2},    // repeated pins on XOR and MUX2
		{3, 0, 13, 0, 0, 14, 1, 1, 1, 17, 2},      // a tri-state driver into a resolver
		{5, 0, 15, 4, 0, 6, 1, 1, 3, 16, 2, 5, 3}, // a DFF and a DLatch in one ring
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gates, inputs, outputs := decodeGates(data)
		ref := cyclesReference(gates)
		c, err := viaFlat(gates, inputs, outputs)
		if (err != nil) != (ref != nil) {
			t.Fatalf("FromFlat: %v; reference: %v", err, ref)
		}
		if err != nil {
			quoted, ok := strings.CutPrefix(err.Error(), "circuit: combinational cycle through gate ")
			name, uerr := strconv.Unquote(quoted)
			id, aerr := strconv.Atoi(strings.TrimPrefix(name, "g"))
			if !ok || uerr != nil || aerr != nil || id < 0 || id >= len(gates) {
				t.Fatalf("refusal names no gate: %v", err)
			}
			if !onCombinationalCycle(gates, circuit.GateID(id)) {
				t.Fatalf("refusal names %s, which is on no combinational cycle", name)
			}
			return
		}
		want, rerr := levelizeReference(gates)
		if rerr != nil {
			t.Fatalf("reference levelization refused an acyclic list: %v", rerr)
		}
		if !equalLevels(c.Levels, want) {
			t.Fatalf("Levels %v, reference %v", c.Levels, want)
		}
	})
}
