package partition

import (
	"sort"

	"repro/internal/circuit"
)

// ConeSplit groups each combinational cone — the connected component of
// combinational gates bounded by sources and sequential elements — into a
// single block, then packs whole cones onto k blocks greedily by weight.
// A sequential element joins the cone computing its data input, so the
// only nets crossing blocks are sequential outputs (and shared primary
// inputs): exactly the state-element boundaries where the engines must
// synchronize. The second result is the number of cones found, which the
// partition also records as Cones.
//
// This is the partitioning half of the cone-split execution mode: each
// fat block is then evaluated obliviously in one levelized sweep (the
// kernel's EnableSweep path) instead of gate-by-gate event selection, so
// conservative engines exchange lookahead for whole-cone evaluation and
// the null-message volume drops with the block count.
func ConeSplit(c *circuit.Circuit, k int, w Weights) (*Partition, int) {
	n := len(c.Kinds)
	uf := newUnionFind(n)

	// Union combinational gates with their combinational fanin; a
	// sequential gate joins its data cone but sequential OUTPUTS never
	// merge their readers (that is the synchronization boundary).
	for g := 0; g < n; g++ {
		kind := c.Kinds[g]
		if kind.Source() {
			continue
		}
		fanin := c.FaninAdj.Row(circuit.GateID(g))
		if kind.Sequential() {
			if d := fanin[0]; !c.Kinds[d].Source() && !c.Kinds[d].Sequential() {
				uf.union(g, int(d))
			}
			continue
		}
		for _, f := range fanin {
			if fk := c.Kinds[f]; !fk.Source() && !fk.Sequential() {
				uf.union(g, int(f))
			}
		}
	}

	// Sources go with the component that reads them most: a shared input
	// is replicated traffic either way, but the heaviest consumer saves
	// the most link crossings.
	for g := 0; g < n; g++ {
		if !c.Kinds[g].Source() {
			continue
		}
		votes := make(map[int]int)
		for _, dst := range c.FanoutAdj.Row(circuit.GateID(g)) {
			votes[uf.find(int(dst))]++
		}
		best, bestVotes := -1, 0
		for root, v := range votes {
			if v > bestVotes || (v == bestVotes && root < best) {
				best, bestVotes = root, v
			}
		}
		if best >= 0 {
			uf.attach(g, best)
		}
	}

	// Collect components and count the true cones (components containing
	// at least one non-source gate).
	compIx := make(map[int]int)
	var comps [][]circuit.GateID
	for g := 0; g < n; g++ {
		root := uf.find(g)
		ix, ok := compIx[root]
		if !ok {
			ix = len(comps)
			compIx[root] = ix
			comps = append(comps, nil)
		}
		comps[ix] = append(comps[ix], circuit.GateID(g))
	}
	cones := 0
	for _, comp := range comps {
		for _, g := range comp {
			if !c.Kinds[g].Source() {
				cones++
				break
			}
		}
	}

	// Greedy whole-cone packing: heaviest cone first onto the lightest
	// block. Cones are never split, so blocks can stay uneven (and some
	// may be empty when there are fewer cones than blocks) — that is the
	// documented trade for synchronizing only at sequential boundaries.
	weight := make([]float64, len(comps))
	for i, comp := range comps {
		for _, g := range comp {
			weight[i] += w[g]
		}
	}
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return order[a] < order[b]
	})
	p := &Partition{Blocks: k, Assign: make([]int, n), Cones: cones}
	loads := make([]float64, k)
	for _, ci := range order {
		b := 0
		for i := 1; i < k; i++ {
			if loads[i] < loads[b] {
				b = i
			}
		}
		loads[b] += weight[ci]
		for _, g := range comps[ci] {
			p.Assign[g] = b
		}
	}
	return p, cones
}

// unionFind is a plain weighted-union path-halving disjoint-set forest.
type unionFind struct{ parent, rank []int }

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// attach joins a into the set rooted at root without re-rooting it, so
// roots captured before a sweep of attach calls stay valid.
func (u *unionFind) attach(a, root int) {
	u.parent[u.find(a)] = root
}
