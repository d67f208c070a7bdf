package partition

import (
	"math/rand"

	"repro/internal/circuit"
)

// FM implements Fiduccia–Mattheyses min-cut partitioning, the linear-time
// hypergraph refinement heuristic the paper reports has been "used
// extensively for logic partitioning with good results". k-way partitions
// come from recursive bisection; each bisection runs FM passes (single-cell
// moves chosen by gain under a balance constraint, best-prefix commit)
// until a pass yields no improvement. A pass costs O(pins): gains live in
// bucket arrays (see buckets), not in a priority queue.
//
// Balance bound: each bisection holds both sides within its tolerance of
// the weight-proportional target, and the deviations compound across the
// recursion levels; the property suite asserts imbalance <= 1.35 for the
// generator corpus.
func FM(c *circuit.Circuit, k int, w Weights, seed int64) *Partition {
	return recursiveBisect(c, k, w, seed, fmBisect)
}

// bisector improves g.side, an initial balanced 2-way split; targetA is
// side 0's target share of the total weight.
type bisector func(a *arena, g *hgraph, targetA float64, rng *rand.Rand)

// recursiveBisect builds a k-way partition by recursively splitting the
// vertex set with the given 2-way refiner.
func recursiveBisect(c *circuit.Circuit, k int, w Weights, seed int64, refine bisector) *Partition {
	p := &Partition{Blocks: k, Assign: make([]int, c.NumGates())}
	rng := rand.New(rand.NewSource(seed))
	a := newArena(c)

	var rec func(verts []circuit.GateID, firstBlock, numBlocks int)
	rec = func(verts []circuit.GateID, firstBlock, numBlocks int) {
		if numBlocks == 1 || len(verts) == 0 {
			for _, v := range verts {
				p.Assign[v] = firstBlock
			}
			return
		}
		blocksA := numBlocks / 2
		targetA := float64(blocksA) / float64(numBlocks)

		g := a.induce(c, verts, w)
		initialSplit(g, targetA, rng)
		refine(a, g, targetA, rng)

		nA := a.split(g, verts)
		rec(verts[:nA], firstBlock, blocksA)
		rec(verts[nA:], firstBlock+blocksA, numBlocks-blocksA)
	}
	all := make([]circuit.GateID, c.NumGates())
	for i := range all {
		all[i] = circuit.GateID(i)
	}
	rec(all, 0, k)
	return p
}

// fmBisect runs FM passes until a pass yields no cut improvement.
func fmBisect(a *arena, g *hgraph, targetA float64, _ *rand.Rand) {
	if g.nets() == 0 {
		return
	}
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		if fmPass(a, g, targetA) <= 0 {
			return
		}
	}
}

// fmPass performs one full FM pass over g.side and returns the committed
// cut gain.
func fmPass(a *arena, g *hgraph, targetA float64) int {
	n, side, b := int32(g.cells()), g.side, &a.bk
	// Per-net side populations.
	cnt := sized(a.cnt, g.nets())
	for e := range cnt {
		for _, v := range g.pins(int32(e)) {
			cnt[e][side[v]]++
		}
	}
	// A cell's gain is a sum of ±1 over its nets, so the largest net count
	// bounds every gain of the pass.
	pmax := g.maxNets
	b.reset(int(n), pmax)
	// Initial gains: FS(v) - TE(v): nets where v is alone on its side
	// minus nets entirely on v's side.
	var wA float64
	for v := int32(0); v < n; v++ {
		s := side[v]
		var gain int32
		for _, e := range g.netsOf(v) {
			if cnt[e][s] == 1 {
				gain++
			}
			if cnt[e][1-s] == 0 {
				gain--
			}
		}
		b.insert(s, v, gain)
		if s == 0 {
			wA += g.w[v]
		}
	}
	locked := sized(a.locked, int(n))

	// Balance bounds: each side's weight must stay within one max-cell
	// weight (plus 2% slack) of its target. A move can only break the
	// bound on the side it adds to, and whichever side is over its target
	// can always give up any cell, so looking at the best cell of each
	// side finds a legal move whenever a free cell on that side remains.
	wantA := targetA * g.total
	slack := g.maxW + 0.02*g.total

	moves := a.moves[:0]
	cum, bestCum, bestLen := 0, 0, 0
	for {
		v0, v1 := b.best(0), b.best(1)
		if v0 >= 0 && wA-g.w[v0] < wantA-slack {
			v0 = -1
		}
		if v1 >= 0 && wA+g.w[v1] > wantA+slack {
			v1 = -1
		}
		v := v0
		// Between two legal moves take the higher gain; on a tie, the one
		// off the side that is over its target.
		if v0 < 0 || v1 >= 0 && (b.key[v1] > b.key[v0] || b.key[v1] == b.key[v0] && wA < wantA) {
			v = v1
		}
		if v < 0 {
			break
		}
		from := side[v]
		to := 1 - from
		b.remove(from, v)
		locked[v] = true
		cum += int(b.key[v])
		moves = append(moves, v)

		// Standard FM gain updates around the move. Only a net that is
		// critical before it (at most one cell on the to side) or after it
		// (at most one left on the from side) changes any gain: with none
		// on a side every free cell of the net gains (before) or loses
		// (after) one, with one that lone cell loses (before) or gains
		// (after) one. Both effects on a cell go into one bucket update.
		for _, e := range g.netsOf(v) {
			c := &cnt[e]
			toBefore := c[to]
			c[from]--
			c[to]++
			fromAfter := c[from]
			if toBefore > 1 && fromAfter > 1 {
				continue
			}
			for _, u := range g.pins(e) {
				if locked[u] {
					continue
				}
				var d int32
				switch {
				case toBefore == 0:
					d++
				case toBefore == 1 && side[u] == to:
					d--
				}
				switch {
				case fromAfter == 0:
					d--
				case fromAfter == 1 && side[u] == from:
					d++
				}
				if d != 0 {
					b.update(side[u], u, d)
				}
			}
		}
		side[v] = to
		if from == 0 {
			wA -= g.w[v]
		} else {
			wA += g.w[v]
		}
		// Past its best prefix a pass goes on only while one best-case
		// move (pmax) could still bring it level. Coming back from
		// further behind is rare and worth one link when it happens (3 %
		// of the quality corpus's passes, none on the 12k- and 40k-gate
		// circuits), while the cells still free at that point — three
		// quarters of them from the second pass on — cost most of the
		// pass to move.
		if cum > bestCum {
			bestCum, bestLen = cum, len(moves)
		} else if bestCum-cum > int(pmax) {
			break
		}
	}

	// Roll back moves after the best prefix.
	for _, v := range moves[bestLen:] {
		side[v] = 1 - side[v]
	}
	a.cnt, a.locked, a.moves = cnt, locked, moves
	return bestCum
}
