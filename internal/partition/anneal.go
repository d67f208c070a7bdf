package partition

import (
	"math"
	"math/rand"

	"repro/internal/circuit"
)

// Anneal implements simulated-annealing k-way partitioning. The paper notes
// annealing "has suffered from two problems": prohibitive runtime and the
// difficulty of choosing a cost function. Both are visible here by design —
// the move budget is explicit (so experiment E4 can show the quality/time
// trade-off against KL/FM) and the cost function is the documented
// cut + lambda * imbalance^2 combination.
//
// Moves reassign one random gate to one random other block; the temperature
// follows a geometric schedule from an initial value calibrated to accept
// most early uphill moves.
//
// Balance bound: the cost function penalizes imbalance quadratically but
// never forbids it, so the guarantee is soft; the property suite asserts
// imbalance <= 2.0 for the generator corpus at realistic move budgets.
func Anneal(c *circuit.Circuit, k int, w Weights, seed int64, moves int) *Partition {
	if moves <= 0 {
		moves = 60 * c.NumGates()
	}
	rng := rand.New(rand.NewSource(seed))
	p := Contiguous(c, k, w)
	if k < 2 {
		return p
	}
	n := c.NumGates()

	// Incremental cut bookkeeping: cutOf(g) = number of distinct foreign
	// blocks among g's consumers plus, for each fanin driver, whether g is
	// the sole consumer of that driver in g's block ... recomputing exact
	// incremental deltas for the (net, consumer-block) metric is what the
	// delta function below does for the two affected gates' neighborhoods.
	var total float64
	for _, x := range w {
		total += x
	}
	target := total / float64(k)
	loads := p.BlockLoads(w)

	// localCut computes the cut links contributed by the nets incident to
	// gate g (its own output net plus each fanin net).
	seen := newBlockSet(k)
	localCut := func(g circuit.GateID) int { return localCutLinks(c, p.Assign, g, seen) }
	// imbalancePenalty is quadratic in each block's deviation from target,
	// normalized so it is commensurate with cut counts.
	lambda := 4.0 / (target*target + 1)
	blockPenalty := func(b int) float64 {
		dev := loads[b] - target
		return lambda * dev * dev
	}

	// Calibrate the starting temperature from random move deltas.
	temp := 1.0
	{
		var sum float64
		samples := 50
		for i := 0; i < samples; i++ {
			g := circuit.GateID(rng.Intn(n))
			sum += float64(localCut(g)) + 1
		}
		temp = sum / float64(samples)
	}
	cooling := math.Pow(0.01/temp, 1/float64(moves))

	for i := 0; i < moves; i++ {
		g := circuit.GateID(rng.Intn(n))
		from := p.Assign[g]
		to := rng.Intn(k)
		if to == from {
			temp *= cooling
			continue
		}
		before := float64(localCut(g)) + blockPenalty(from) + blockPenalty(to)
		p.Assign[g] = to
		loads[from] -= w[g]
		loads[to] += w[g]
		after := float64(localCut(g)) + blockPenalty(from) + blockPenalty(to)
		delta := after - before
		if delta > 0 && rng.Float64() >= math.Exp(-delta/temp) {
			// Reject: undo.
			p.Assign[g] = from
			loads[from] += w[g]
			loads[to] -= w[g]
		}
		temp *= cooling
	}
	return p
}

// blockSet is a set of blocks that empties in O(1): block b is a member
// while stamp[b] == gen.
type blockSet struct {
	stamp []int
	gen   int
}

func newBlockSet(blocks int) *blockSet { return &blockSet{stamp: make([]int, blocks)} }

// netCutLinks counts the cut links of net src under assign: the number of
// distinct consumer blocks other than the driver's own. Circuit.Fanout is
// already deduplicated, so a consumer reading src through several pins
// contributes its block once. seen is scratch.
func netCutLinks(c *circuit.Circuit, assign []int, src circuit.GateID, seen *blockSet) int {
	cut := 0
	seen.gen++
	sb := assign[src]
	for _, dst := range c.Fanout[src] {
		if db := assign[dst]; db != sb && seen.stamp[db] != seen.gen {
			seen.stamp[db] = seen.gen
			cut++
		}
	}
	return cut
}

// localCutLinks sums the cut links of every net incident to gate g: its
// own output net plus each distinct fanin net. Gate.Fanin, unlike
// Circuit.Fanout, is NOT deduplicated — a gate may read one net through
// two pins (structural hashing produces exactly that shape when it merges
// a gate's two fanin drivers) — so duplicate fanin entries must be
// skipped or the net's contribution is double-counted, biasing every
// annealing accept/reject delta on such circuits.
func localCutLinks(c *circuit.Circuit, assign []int, g circuit.GateID, seen *blockSet) int {
	cut := netCutLinks(c, assign, g, seen)
	fanin := c.Gates[g].Fanin
	for pi, f := range fanin {
		dup := false
		for _, prev := range fanin[:pi] {
			if prev == f {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cut += netCutLinks(c, assign, f, seen)
	}
	return cut
}
