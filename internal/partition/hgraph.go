package partition

import (
	"math/rand"

	"repro/internal/circuit"
)

// hgraph is the flat hypergraph every min-cut refiner (FM, KL, Multilevel)
// works on, together with the 2-way split being refined: weighted cells,
// and the nets in CSR form both ways. It is built over a vertex subset of
// a circuit — one net per driver with at least one consumer inside the
// subset, driver pin first — or by contracting a finer hgraph.
type hgraph struct {
	w           []float64 // cell weights
	total, maxW float64
	side        []uint8 // cell -> 0 or 1
	maxNets     int32   // most nets on any one cell

	netOff, netPins   []int32 // net e's cells: netPins[netOff[e]:netOff[e+1]]
	cellOff, cellNets []int32 // cell v's nets: cellNets[cellOff[v]:cellOff[v+1]]

	// Multilevel only: the contraction of this graph, and each cell's
	// cell in it.
	coarser *hgraph
	coarse  []int32
}

func (g *hgraph) cells() int             { return len(g.w) }
func (g *hgraph) nets() int              { return len(g.netOff) - 1 }
func (g *hgraph) pins(e int32) []int32   { return g.netPins[g.netOff[e]:g.netOff[e+1]] }
func (g *hgraph) netsOf(v int32) []int32 { return g.cellNets[g.cellOff[v]:g.cellOff[v+1]] }

// sized returns s with length n and every element zero, reusing its
// storage when it is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// arena is the scratch one FM/KL/Multilevel call allocates once and reuses
// across passes, coarsening levels and recursive bisections: the first
// bisection is the largest, so everything after it fits.
type arena struct {
	root  hgraph
	index []int32 // gate -> cell of the subset being built; -1 outside
	stamp []int32 // stamp[v] == mark: cell v is already a pin of the open net
	mark  int32
	rest  []circuit.GateID // split's side-1 buffer

	// Per pass.
	cnt    [][2]int32 // net -> cells on each side
	locked []bool
	moves  []int32
	bk     buckets
	adjOff []int32 // KL's edge graph, CSR
	adjTo  []int32
}

func newArena(c *circuit.Circuit) *arena {
	n := c.NumGates()
	a := &arena{index: make([]int32, n), stamp: make([]int32, n), mark: 1, rest: make([]circuit.GateID, 0, n)}
	for i := range a.index {
		a.index[i] = -1
	}
	return a
}

// reset empties g for n cells of zero weight and no nets.
func (g *hgraph) reset(n int) {
	g.w = sized(g.w, n)
	g.side = sized(g.side, n)
	g.total, g.maxW, g.maxNets = 0, 0, 0
	g.netOff = append(g.netOff[:0], 0)
	g.netPins = g.netPins[:0]
}

// pin adds cell v to the open net of g unless it is on it already.
func (a *arena) pin(g *hgraph, v int32) {
	if a.stamp[v] != a.mark {
		a.stamp[v] = a.mark
		g.netPins = append(g.netPins, v)
	}
}

// closeNet ends the open net, dropping it if it spans fewer than two cells.
func (a *arena) closeNet(g *hgraph) {
	a.mark++
	if start := g.netOff[len(g.netOff)-1]; len(g.netPins)-int(start) < 2 {
		g.netPins = g.netPins[:start]
		return
	}
	g.netOff = append(g.netOff, int32(len(g.netPins)))
}

// finish derives the weight summary, the cell -> nets index and maxNets
// from the weights and nets built so far.
func (g *hgraph) finish() {
	for _, w := range g.w {
		g.total += w
		g.maxW = max(g.maxW, w)
	}
	n := g.cells()
	off := sized(g.cellOff, n+1)
	for _, v := range g.netPins {
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		g.maxNets = max(g.maxNets, off[v+1])
		off[v+1] += off[v]
	}
	g.cellNets = sized(g.cellNets, len(g.netPins))
	for e := int32(0); int(e) < g.nets(); e++ {
		for _, v := range g.pins(e) {
			g.cellNets[off[v]] = e
			off[v]++
		}
	}
	copy(off[1:], off[:n]) // each offset advanced to its successor's start
	off[0] = 0
	g.cellOff = off
}

// induce builds a.root over verts: cell i is verts[i].
func (a *arena) induce(c *circuit.Circuit, verts []circuit.GateID, w Weights) *hgraph {
	g := &a.root
	g.reset(len(verts))
	for i, v := range verts {
		a.index[v] = int32(i)
		g.w[i] = w[v]
	}
	for i, v := range verts {
		a.pin(g, int32(i))
		for _, dst := range c.FanoutAdj.Row(v) {
			if j := a.index[dst]; j >= 0 {
				a.pin(g, j)
			}
		}
		a.closeNet(g)
	}
	for _, v := range verts {
		a.index[v] = -1
	}
	g.finish()
	return g
}

// initialSplit sets g.side to a weight-balanced random split with side-0
// share close to targetA.
func initialSplit(g *hgraph, targetA float64, rng *rand.Rand) {
	wantA := targetA * g.total
	var accA float64
	for _, i := range rng.Perm(g.cells()) {
		if accA < wantA {
			g.side[i] = 0
			accA += g.w[i]
		} else {
			g.side[i] = 1
		}
	}
}

// split reorders verts, stably, so the side-0 cells of g come first, and
// returns how many there are.
func (a *arena) split(g *hgraph, verts []circuit.GateID) int {
	rest := a.rest[:0]
	nA := 0
	for i, v := range verts {
		if g.side[i] == 0 {
			verts[nA] = v
			nA++
		} else {
			rest = append(rest, v)
		}
	}
	copy(verts[nA:], rest)
	a.rest = rest
	return nA
}
