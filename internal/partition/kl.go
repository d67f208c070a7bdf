package partition

import (
	"math/rand"

	"repro/internal/circuit"
)

// KL implements Kernighan–Lin min-cut partitioning: pairwise swaps between
// the two sides, committed as the best-gain prefix of a pass. It is the
// historical ancestor of FM the paper cites; k-way partitions come from the
// same recursive bisection scaffold. Pair selection uses the standard
// practical refinement of examining the top-D candidates from each side
// rather than all O(n^2) pairs.
//
// Balance bound: swaps exchange one gate for one gate, so each bisection
// keeps the initial half/half weight split to within the heaviest gate;
// the property suite asserts imbalance <= 1.25 for the generator corpus.
func KL(c *circuit.Circuit, k int, w Weights, seed int64) *Partition {
	return recursiveBisect(c, k, w, seed, klBisect)
}

// klBisect runs KL passes until no improvement.
func klBisect(a *arena, g *hgraph, _ float64, _ *rand.Rand) {
	n := g.cells()
	if n < 2 || g.nets() == 0 {
		return
	}
	// Edge graph: one unit edge between the driver and each consumer of
	// every net, in both cells' rows. A two-gate loop yields two parallel
	// edges; every sum over a row counts both.
	off := sized(a.adjOff, n+1)
	for e := int32(0); int(e) < g.nets(); e++ {
		pins := g.pins(e)
		off[pins[0]+1] += int32(len(pins) - 1)
		for _, u := range pins[1:] {
			off[u+1]++
		}
	}
	var pmax int32 // a D-value is a sum of ±1 over the cell's edges
	for v := 0; v < n; v++ {
		pmax = max(pmax, off[v+1])
		off[v+1] += off[v]
	}
	to := sized(a.adjTo, int(off[n]))
	for e := int32(0); int(e) < g.nets(); e++ {
		pins := g.pins(e)
		drv := pins[0]
		for _, u := range pins[1:] {
			to[off[drv]], to[off[u]] = u, drv
			off[drv]++
			off[u]++
		}
	}
	copy(off[1:], off[:n]) // each offset advanced to its successor's start
	off[0] = 0
	a.adjOff, a.adjTo = off, to

	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		if klPass(a, g, pmax) <= 0 {
			return
		}
	}
}

// klPass performs one KL pass (a sequence of tentative best swaps, then
// commits the best prefix) and returns the committed gain.
func klPass(a *arena, g *hgraph, pmax int32) int {
	n, side, b := int32(g.cells()), g.side, &a.bk
	adj := func(v int32) []int32 { return a.adjTo[a.adjOff[v]:a.adjOff[v+1]] }
	// D[v] = external cost - internal cost.
	b.reset(int(n), pmax)
	for v := int32(0); v < n; v++ {
		var d int32
		for _, u := range adj(v) {
			if side[u] != side[v] {
				d++
			} else {
				d--
			}
		}
		b.insert(side[v], v, d)
	}
	locked := sized(a.locked, int(n))
	// retire locks v and moves its free neighbours' D-values as if v had
	// changed sides; its swap partner is locked first and so skipped.
	retire := func(v int32) {
		for _, u := range adj(v) {
			if locked[u] {
				continue
			}
			if side[u] == side[v] {
				b.update(side[u], u, +2)
			} else {
				b.update(side[u], u, -2)
			}
		}
	}

	swaps := a.moves[:0] // pairs, flattened
	cum, bestCum, bestLen := 0, 0, 0
	const candidates = 6
	var lead [2][candidates]int32
	for {
		as, bs := b.leaders(0, candidates, lead[0][:0]), b.leaders(1, candidates, lead[1][:0])
		if len(as) == 0 || len(bs) == 0 {
			break
		}
		bestGain := int32(-1 << 30)
		var x, y int32
		for _, va := range as {
			for _, vb := range bs {
				gn := b.key[va] + b.key[vb]
				for _, u := range adj(va) {
					if u == vb {
						gn -= 2
					}
				}
				if gn > bestGain {
					bestGain, x, y = gn, va, vb
				}
			}
		}
		b.remove(0, x)
		b.remove(1, y)
		locked[x], locked[y] = true, true
		cum += int(bestGain)
		swaps = append(swaps, x, y)
		retire(x)
		retire(y)
		side[x], side[y] = 1, 0
		if cum > bestCum {
			bestCum, bestLen = cum, len(swaps)
		}
	}
	// Revert swaps beyond the best prefix.
	for _, v := range swaps[bestLen:] {
		side[v] = 1 - side[v]
	}
	a.locked, a.moves = locked, swaps
	return bestCum
}
