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
func (c *Circuit) levelize() error {
	n := len(c.Kinds)
	// Combinational in-degree: the number of distinct fanin nets driven by
	// a combinational gate. FanoutAdj rows are deduplicated, so a gate
	// reading one net through two pins counts it once, and sources, having
	// no fanin, are in no row.
	indeg := make([]int32, n)
	for f, k := range c.Kinds {
		if k.Source() || k.Sequential() {
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
	queue := make([]GateID, 0, n)
	for id, k := range c.Kinds {
		if !k.Source() && !k.Sequential() && indeg[id] == 0 {
			queue = append(queue, GateID(id))
		}
	}
	var levels [][]GateID
	for lo := 0; lo < len(queue); {
		hi := len(queue)
		for _, g := range queue[lo:hi] {
			for _, out := range c.FanoutAdj.Row(g) {
				indeg[out]--
				if indeg[out] == 0 && !c.Kinds[out].Sequential() {
					queue = append(queue, out)
				}
			}
		}
		slices.Sort(queue[lo:hi])
		levels = append(levels, queue[lo:hi:hi])
		lo = hi
	}
	// A gate the pass never released still waits on a driver.
	if g := slices.IndexFunc(indeg, func(d int32) bool { return d > 0 }); g >= 0 {
		return fmt.Errorf("circuit: combinational cycle through gate %q", c.Name(c.cycleGate(GateID(g), indeg)))
	}
	lo := len(queue)
	for id, k := range c.Kinds {
		if k.Sequential() {
			queue = append(queue, GateID(id))
		}
	}
	if hi := len(queue); hi > lo {
		levels = append(levels, queue[lo:hi:hi])
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
