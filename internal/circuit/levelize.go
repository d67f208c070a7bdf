package circuit

import "fmt"

// Levelize partitions the non-source gates into topological levels over
// the combinational edges of the circuit: a gate's level is one greater
// than the maximum level of its combinational fanin, with sources (primary
// inputs, constants) and sequential outputs at level zero.
//
// Level-by-level evaluation is the schedule the oblivious (compiled-mode)
// engine uses: evaluating level k only after all of level k-1 guarantees
// every gate sees settled inputs, which is the "properly scheduled"
// correctness condition the paper describes for oblivious simulation.
//
// Sequential gates appear in the final returned level regardless of their
// structural depth, so a full pass (all levels in order) corresponds to one
// zero-delay evaluation cycle: combinational logic settles, then state
// elements sample their settled inputs.
func (c *Circuit) Levelize() ([][]GateID, error) {
	n := len(c.Kinds)
	level := make([]int32, n)
	indeg := make([]int32, n)
	// Combinational in-degree: number of distinct fanin nets whose driver
	// is a non-source combinational gate. Distinctness matters because the
	// fanout lists used for decrementing are deduplicated: a gate reading
	// the same net through two pins is only one graph edge. lastReader[f]
	// is the last gate that counted net f, so a repeat pin is skipped.
	lastReader := make([]GateID, n)
	for i := range lastReader {
		lastReader[i] = -1
	}
	for id := 0; id < n; id++ {
		if c.Kinds[id].Source() {
			continue
		}
		for _, f := range c.FaninAdj.Row(GateID(id)) {
			if lastReader[f] == GateID(id) {
				continue
			}
			lastReader[f] = GateID(id)
			if k := c.Kinds[f]; !k.Source() && !k.Sequential() {
				indeg[id]++
			}
		}
	}
	// Kahn's algorithm over combinational edges.
	queue := make([]GateID, 0, n)
	for id := 0; id < n; id++ {
		if !c.Kinds[id].Source() && indeg[id] == 0 {
			queue = append(queue, GateID(id))
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
	levels := make([][]GateID, 0, maxLevel)
	for l, at := int32(1), int32(0); l <= maxLevel; l++ {
		size := off[l]
		off[l] = at
		at += size
	}
	for id := 0; id < n; id++ {
		if !c.Kinds[id].Source() {
			queue[off[level[id]]] = GateID(id)
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

// TopoOrder returns all non-source gates in a valid combinational
// evaluation order (levels flattened). It is the schedule used by
// compiled-code style evaluation.
func (c *Circuit) TopoOrder() ([]GateID, error) {
	levels, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	order := make([]GateID, 0, len(c.Gates))
	for _, l := range levels {
		order = append(order, l...)
	}
	return order, nil
}
