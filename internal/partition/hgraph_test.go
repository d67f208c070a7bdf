package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
)

// cutOf counts the nets of g with cells on both sides.
func cutOf(g *hgraph) int {
	cut := 0
	for e := int32(0); int(e) < g.nets(); e++ {
		pins := g.pins(e)
		for _, u := range pins[1:] {
			if g.side[u] != g.side[pins[0]] {
				cut++
				break
			}
		}
	}
	return cut
}

// randomSubset draws a subset of c's gates in ascending order, as the
// recursion hands them down.
func randomSubset(c *circuit.Circuit, keep float64, rng *rand.Rand) []circuit.GateID {
	var verts []circuit.GateID
	for g := 0; g < len(c.Kinds); g++ {
		if rng.Float64() < keep {
			verts = append(verts, circuit.GateID(g))
		}
	}
	return verts
}

// refNets builds the nets of the hypergraph induced on verts the slow way:
// one net per driver, the driver first, then each distinct consumer inside
// the subset in fanout order; nets of one cell are dropped.
func refNets(c *circuit.Circuit, verts []circuit.GateID) [][]int32 {
	index := map[circuit.GateID]int32{}
	for i, v := range verts {
		index[v] = int32(i)
	}
	var nets [][]int32
	for i, v := range verts {
		cells := []int32{int32(i)}
		seen := map[int32]bool{int32(i): true}
		for _, dst := range c.FanoutAdj.Row(v) {
			if j, ok := index[dst]; ok && !seen[j] {
				seen[j] = true
				cells = append(cells, j)
			}
		}
		if len(cells) >= 2 {
			nets = append(nets, cells)
		}
	}
	return nets
}

// checkGraph compares g's two CSR halves and weight summary with nets and w.
func checkGraph(t *testing.T, g *hgraph, nets [][]int32, w []float64) {
	t.Helper()
	if g.nets() != len(nets) || g.cells() != len(w) {
		t.Fatalf("graph has %d nets over %d cells, want %d over %d", g.nets(), g.cells(), len(nets), len(w))
	}
	netsOf := make([][]int32, len(w))
	for e, cells := range nets {
		if got := g.pins(int32(e)); !reflect.DeepEqual(got, cells) {
			t.Fatalf("net %d: pins %v, want %v", e, got, cells)
		}
		for _, v := range cells {
			netsOf[v] = append(netsOf[v], int32(e))
		}
	}
	var total, maxW float64
	maxNets := 0
	for v, x := range w {
		maxNets = max(maxNets, len(netsOf[v]))
		if got := g.netsOf(int32(v)); len(got)+len(netsOf[v]) > 0 && !reflect.DeepEqual(got, netsOf[v]) {
			t.Fatalf("cell %d: nets %v, want %v", v, got, netsOf[v])
		}
		if g.w[v] != x {
			t.Fatalf("cell %d: weight %v, want %v", v, g.w[v], x)
		}
		total += x
		maxW = max(maxW, x)
	}
	if d := g.total - total; d > 1e-9 || d < -1e-9 || g.maxW != maxW || int(g.maxNets) != maxNets {
		t.Fatalf("total %v maxW %v maxNets %d, want %v, %v and %d", g.total, g.maxW, g.maxNets, total, maxW, maxNets)
	}
}

// TestFlatHypergraphMatchesCircuit checks the flat graph of random vertex
// subsets against a map-built reference — one arena across all of them, as
// in a run, so stale stamps or index entries would show — and each graph's
// contraction against the image of its nets: total weight kept, a net
// dropped exactly when it collapses into one coarse cell.
func TestFlatHypergraphMatchesCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for ci, c := range propertyCorpus(t) {
		w := make(Weights, len(c.Kinds))
		for i := range w {
			w[i] = 0.1 + float64(rng.Intn(40))
		}
		a := newArena(c)
		for _, keep := range []float64{1, 0.5, 0.1, 0.5, 1} {
			verts := randomSubset(c, keep, rng)
			g := a.induce(c, verts, w)
			ws := make([]float64, len(verts))
			for i, v := range verts {
				ws[i] = w[v]
			}
			checkGraph(t, g, refNets(c, verts), ws)
			for _, x := range a.index {
				if x != -1 {
					t.Fatalf("circuit %d: index not restored after induce", ci)
				}
			}

			for lv := g; a.coarsen(lv, rng); lv = lv.coarser {
				cg := lv.coarser
				if cg.cells() >= lv.cells() {
					t.Fatalf("circuit %d: contraction %d -> %d cells", ci, lv.cells(), cg.cells())
				}
				cw := make([]float64, cg.cells())
				for v, cv := range lv.coarse {
					cw[cv] += lv.w[v]
				}
				var cnets [][]int32
				for e := int32(0); int(e) < lv.nets(); e++ {
					var cells []int32
					seen := map[int32]bool{}
					for _, u := range lv.pins(e) {
						if cu := lv.coarse[u]; !seen[cu] {
							seen[cu] = true
							cells = append(cells, cu)
						}
					}
					if len(cells) >= 2 {
						cnets = append(cnets, cells)
					}
				}
				checkGraph(t, cg, cnets, cw)
				if d := cg.total - lv.total; d > 1e-6 || d < -1e-6 {
					t.Fatalf("circuit %d: contraction changed total weight %v -> %v", ci, lv.total, cg.total)
				}
			}
		}
	}
}

// TestFMPassGainIsCutDelta is the invariant a wrong gain update breaks:
// the gain a pass reports is exactly the drop in cut nets it committed,
// and a pass never commits a loss. Every pass of every bisection on the
// property corpus is checked, on whole circuits and on subsets, with even
// and uneven targets, uniform and skewed weights, and at every level of a
// coarsening hierarchy.
func TestFMPassGainIsCutDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	passes := 0
	refine := func(a *arena, g *hgraph, targetA float64) {
		for pass := 0; pass < 8; pass++ {
			before := cutOf(g)
			gain := fmPass(a, g, targetA)
			if after := cutOf(g); gain != before-after || gain < 0 {
				t.Fatalf("pass %d over %d cells: reported gain %d, cut went %d -> %d", pass, g.cells(), gain, before, after)
			}
			passes++
			if gain == 0 {
				return
			}
		}
	}
	for _, c := range propertyCorpus(t) {
		skewed := make(Weights, len(c.Kinds))
		for i := range skewed {
			skewed[i] = 0.1 + float64(rng.Intn(7)*rng.Intn(7))
		}
		a := newArena(c)
		for _, w := range []Weights{WeightsUniform(c), skewed} {
			for _, keep := range []float64{1, 0.4} {
				for _, targetA := range []float64{0.5, 1.0 / 3} {
					g := a.induce(c, randomSubset(c, keep, rng), w)
					initialSplit(g, targetA, rng)
					refine(a, g, targetA)
					for lv := g; lv.cells() > 20 && a.coarsen(lv, rng); lv = lv.coarser {
						initialSplit(lv.coarser, targetA, rng)
						refine(a, lv.coarser, targetA)
					}
				}
			}
		}
	}
	t.Logf("%d passes checked", passes)
	if passes < 500 {
		t.Fatalf("only %d passes checked", passes)
	}
}
