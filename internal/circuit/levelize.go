package circuit

import (
	"fmt"
	"slices"
)

// levelize computes Levels, partitioning the non-source gates into
// topological levels over the combinational edges of the circuit: a
// gate's level is one greater than the maximum level of its combinational
// fanin, with sources (primary inputs, constants) and sequential outputs
// at level zero.
//
// Level-by-level evaluation is the schedule the oblivious (compiled-mode)
// engine uses: evaluating level k only after all of level k-1 guarantees
// every gate sees settled inputs, which is the "properly scheduled"
// correctness condition the paper describes for oblivious simulation.
//
// Sequential gates appear in the final level regardless of their
// structural depth, so a full pass (all levels in order) corresponds to one
// zero-delay evaluation cycle: combinational logic settles, then state
// elements sample their settled inputs.
//
// It is also the circuit's only cycle check. Cycles through DFFs are legal
// (that is what sequential circuits are); purely combinational feedback
// with discrete delays can oscillate forever, so a circuit whose
// combinational edges do not all levelize is refused. Cross-coupled latch
// structures must therefore be expressed with the DLatch primitive.
//
// scratch holds at least len(c.Kinds) entries, which levelize may
// overwrite. The queue of released gates is the array the levels are
// carved from: it is rewritten in ID order at the end.
func (c *Circuit) levelize(scratch []int32) error {
	n := len(c.Kinds)
	// Combinational in-degree: the number of distinct fanin nets driven by
	// a combinational gate. FanoutAdj rows are deduplicated, so a gate
	// reading one net through two pins counts it once, and sources, having
	// no fanin, are in no row.
	indeg := scratch[:n]
	clear(indeg)
	placed := 0 // non-source gates
	for f, k := range c.Kinds {
		if k.Source() {
			continue
		}
		placed++
		if k.Sequential() {
			continue
		}
		for _, out := range c.FanoutAdj.Row(GateID(f)) {
			indeg[out]++
		}
	}
	// Kahn's algorithm over combinational edges, one level at a time: the
	// gates a level releases are exactly the next level, since a gate is
	// released with its last, deepest driver. Sequential gates are
	// released but not queued: they do not propagate, and they form the
	// final level on their own.
	queue := make([]GateID, 0, placed)
	for id, k := range c.Kinds {
		if !k.Source() && !k.Sequential() && indeg[id] == 0 {
			queue = append(queue, GateID(id))
		}
	}
	var size []int32 // size[l] is level l's; the sequential level's is last
	for lo := 0; lo < len(queue); {
		hi := len(queue)
		size = append(size, int32(hi-lo))
		for _, g := range queue[lo:hi] {
			for _, out := range c.FanoutAdj.Row(g) {
				indeg[out]--
				if indeg[out] == 0 && !c.Kinds[out].Sequential() {
					queue = append(queue, out)
				}
			}
		}
		lo = hi
	}
	// A gate the pass never released still waits on a driver.
	if g := slices.IndexFunc(indeg, func(d int32) bool { return d > 0 }); g >= 0 {
		return fmt.Errorf("circuit: combinational cycle through gate %q", c.Name(c.cycleGate(GateID(g), indeg)))
	}
	// Every in-degree is zero now. Record each gate's level, from 1, the
	// sequential gates' one past the last, and lay the levels out again
	// in ID order, so that each comes out ascending without a sort.
	seqLevel := int32(len(size) + 1)
	size = append(size, int32(placed-len(queue)))
	at := 0
	for l, sz := range size[:len(size)-1] {
		for _, g := range queue[at : at+int(sz)] {
			indeg[g] = int32(l + 1)
		}
		at += int(sz)
	}
	levels := make([][]GateID, 0, len(size))
	next := make([]int32, len(size)) // next free position of each level
	at = 0
	for l, sz := range size {
		next[l] = int32(at)
		if sz > 0 {
			levels = append(levels, queue[at:at+int(sz):at+int(sz)])
		}
		at += int(sz)
	}
	queue = queue[:placed]
	for id, k := range c.Kinds {
		l := indeg[id] - 1
		if k.Sequential() {
			l = seqLevel - 1
		} else if l < 0 {
			continue // a source
		}
		queue[next[l]] = GateID(id)
		next[l]++
	}
	c.Levels = levels
	return nil
}

// cycleGate returns a gate on a combinational cycle, given a gate g that
// levelize's pass left unreleased (indeg > 0). Such a gate may only sit
// downstream of a cycle, but it still waits on an unreleased combinational
// driver, and so does that driver: a walk from driver to driver never
// ends, so the first gate it meets twice is on a cycle. The walk marks a
// gate visited by negating its in-degree.
func (c *Circuit) cycleGate(g GateID, indeg []int32) GateID {
	for indeg[g] > 0 {
		indeg[g] = -indeg[g]
		for _, f := range c.FaninAdj.Row(g) {
			if indeg[f] != 0 && !c.Kinds[f].Sequential() {
				g = f
				break
			}
		}
	}
	return g
}
