package partition

import (
	"repro/internal/circuit"
)

// Strings implements the strings algorithm of Levendel, Menon, and Patel:
// starting from each primary input (and then from any still-unassigned
// gate), follow the fanout chain depth-first until it dead-ends in assigned
// territory or a primary output, and place the whole string on the
// currently lightest block. Strings keep tightly coupled driver/consumer
// chains together, trading balance precision for low cut.
//
// Balance bound: placement is greedy onto the lightest block, so the max
// block load is at most the mean plus the heaviest single string. Strings
// are short on realistic circuits (fanout chains dead-end quickly), so the
// property suite asserts imbalance <= 1.25 for the generator corpus.
func Strings(c *circuit.Circuit, k int, w Weights) *Partition {
	p := &Partition{Blocks: k, Assign: make([]int, len(c.Kinds))}
	for g := range p.Assign {
		p.Assign[g] = -1
	}
	loads := make([]float64, k)

	assignString := func(start circuit.GateID) {
		block := lightest(loads)
		g := start
		for {
			p.Assign[g] = block
			loads[block] += w[g]
			next := circuit.GateID(-1)
			for _, out := range c.FanoutAdj.Row(g) {
				if p.Assign[out] < 0 {
					next = out
					break
				}
			}
			if next < 0 {
				return
			}
			g = next
		}
	}

	for _, in := range c.Inputs {
		if p.Assign[in] < 0 {
			assignString(in)
		}
	}
	// Repeat from inputs until their reachable strings are exhausted, then
	// sweep any remaining gates (e.g. constants, gates fed only by
	// flip-flop loops).
	for {
		grew := false
		for _, in := range c.Inputs {
			for _, out := range c.FanoutAdj.Row(in) {
				if p.Assign[out] < 0 {
					assignString(out)
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	for g := range p.Assign {
		if p.Assign[g] < 0 {
			assignString(circuit.GateID(g))
		}
	}
	return p
}

// Cones implements fanin-cone partitioning in the style of Smith,
// Underwood, and Mercer: for each primary output, gather its still-
// unassigned transitive fanin cone breadth-first and place the cone on the
// lightest block. Cones cluster the logic that computes each output, so
// output-to-output independence becomes block-to-block independence.
//
// Balance bound: balance is subordinate to cone integrity — a dominant
// output cone lands on one block whole. The guarantee is the greedy
// list-scheduling bound: max block load <= mean load + the heaviest item
// placed, and every item is a subset of some gate's full fanin cone, so
// imbalance <= 1 + maxConeWeight/meanLoad. The property suite asserts
// exactly that bound with an independently recomputed cone weight.
func Cones(c *circuit.Circuit, k int, w Weights) *Partition {
	p := &Partition{Blocks: k, Assign: make([]int, len(c.Kinds))}
	for g := range p.Assign {
		p.Assign[g] = -1
	}
	loads := make([]float64, k)

	assignCone := func(root circuit.GateID) {
		if p.Assign[root] >= 0 {
			return
		}
		block := lightest(loads)
		queue := []circuit.GateID{root}
		p.Assign[root] = block
		loads[block] += w[root]
		for len(queue) > 0 {
			g := queue[0]
			queue = queue[1:]
			for _, f := range c.FaninAdj.Row(g) {
				if p.Assign[f] < 0 {
					p.Assign[f] = block
					loads[block] += w[f]
					queue = append(queue, f)
				}
			}
		}
	}

	for _, out := range c.Outputs {
		assignCone(out)
	}
	for g := len(c.Kinds) - 1; g >= 0; g-- {
		assignCone(circuit.GateID(g))
	}
	return p
}

// Levels implements concurrency-preserving level partitioning: gates at
// the same topological level can evaluate in the same timestep, so dealing
// each level across the blocks maximizes the number of blocks with work at
// every simulated time — the objective synchronous simulation cares about
// most. The deal is weight-aware (each level's gates go to the lightest
// blocks first).
func Levels(c *circuit.Circuit, k int, w Weights) *Partition {
	p := &Partition{Blocks: k, Assign: make([]int, len(c.Kinds))}
	for g := range p.Assign {
		p.Assign[g] = -1
	}
	loads := make([]float64, k)
	place := func(g circuit.GateID) {
		b := lightest(loads)
		p.Assign[g] = b
		loads[b] += w[g]
	}
	for _, level := range c.Levels {
		for _, g := range level {
			place(g)
		}
	}
	// Sources (inputs, constants) are not in the levelization; placing each
	// with the block that consumes it most keeps input events local.
	for g := range p.Assign {
		if p.Assign[g] >= 0 {
			continue
		}
		counts := make(map[int]int)
		best, bestN := -1, -1
		for _, out := range c.FanoutAdj.Row(circuit.GateID(g)) {
			if b := p.Assign[out]; b >= 0 {
				counts[b]++
				if counts[b] > bestN {
					best, bestN = b, counts[b]
				}
			}
		}
		if best < 0 {
			best = lightest(loads)
		}
		p.Assign[g] = best
		loads[best] += w[g]
	}
	return p
}
