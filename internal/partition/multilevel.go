package partition

import (
	"math/rand"

	"repro/internal/circuit"
)

// Multilevel implements multilevel min-cut partitioning: the hypergraph is
// coarsened by repeated heavy-edge matching until it is small, the
// coarsest graph is split with FM, and the split is projected back up with
// an FM refinement pass at every level. This is the scheme the follow-up
// logic-simulation partitioning literature adopted from physical design
// (and the engine inside tools like hMETIS): coarsening lets the
// refinement escape the local minima a flat FM pass gets stuck in, at
// essentially FM cost.
//
// Balance bound: as for FM, each bisection is tolerance-constrained but
// the moves are whole coarse clusters, so deviations are coarser-grained;
// the property suite asserts imbalance <= 1.40 for the generator corpus.
func Multilevel(c *circuit.Circuit, k int, w Weights, seed int64) *Partition {
	return recursiveBisect(c, k, w, seed, mlBisect)
}

// mlBisect runs coarsen / initial-partition / uncoarsen+refine.
func mlBisect(a *arena, g *hgraph, targetA float64, rng *rand.Rand) {
	if g.nets() == 0 {
		return
	}
	mlRefine(a, g, targetA, rng)
}

// mlRefine splits g by way of its contraction while g is large and can be
// contracted, afresh otherwise, and refines the split with FM.
func mlRefine(a *arena, g *hgraph, targetA float64, rng *rand.Rand) {
	const coarsestSize = 96
	if g.cells() > coarsestSize && a.coarsen(g, rng) {
		mlRefine(a, g.coarser, targetA, rng)
		for v, cv := range g.coarse {
			g.side[v] = g.coarser.side[cv]
		}
	} else {
		initialSplit(g, targetA, rng)
	}
	fmBisect(a, g, targetA, rng)
}

// coarsen contracts heavy-edge matched cell pairs of g into g.coarser,
// filling g.coarse, and reports whether any contraction happened.
func (a *arena) coarsen(g *hgraph, rng *rand.Rand) bool {
	n := g.cells()
	// Greedy matching in random order: pair each cell with an unmatched
	// neighbour sharing a net (preferring small nets — "heavier" implied
	// connectivity). coarse holds the partner (or, unmatched, the cell
	// itself) until the coarse ids are assigned.
	match := sized(g.coarse, n)
	for v := range match {
		match[v] = -1
	}
	pairs := 0
	for _, i := range rng.Perm(n) {
		v := int32(i)
		if match[v] >= 0 {
			continue
		}
		best, bestNet := int32(-1), 1<<30
		for _, e := range g.netsOf(v) {
			pins := g.pins(e)
			if len(pins) >= bestNet {
				continue
			}
			for _, u := range pins {
				if u != v && match[u] < 0 {
					best, bestNet = u, len(pins)
					break
				}
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			pairs++
		}
	}
	if pairs == 0 {
		return false
	}

	// Coarse ids in order of each pair's first cell; weights sum over the
	// merged cells.
	if g.coarser == nil {
		g.coarser = new(hgraph)
	}
	cg := g.coarser
	cg.reset(n - pairs)
	next := int32(0)
	for v, m := range match {
		if m >= 0 && int(m) < v {
			match[v] = match[m]
		} else {
			match[v] = next
			next++
		}
		cg.w[match[v]] += g.w[v]
	}
	// Nets map through, dropping the ones that collapse into one cell.
	for e := int32(0); int(e) < g.nets(); e++ {
		for _, u := range g.pins(e) {
			a.pin(cg, match[u])
		}
		a.closeNet(cg)
	}
	cg.finish()
	g.coarse = match
	return true
}
