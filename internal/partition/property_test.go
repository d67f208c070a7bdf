package partition

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// propertyCorpus generates the random-circuit corpus the partition
// property suite sweeps: combinational DAGs and sequential netlists of
// varied size and shape.
func propertyCorpus(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var cs []*circuit.Circuit
	for seed := int64(1); seed <= 6; seed++ {
		gates := 120 + int(seed)*171
		dag, err := gen.RandomDAG(gen.RandomConfig{
			Gates: gates, Inputs: 8 + int(seed), Outputs: 5 + int(seed), Seed: seed, Locality: 0.6,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, dag)
		sq, err := gen.RandomSeq(gen.RandomConfig{
			Gates: gates, Inputs: 8 + int(seed), Outputs: 5 + int(seed), Seed: seed + 100,
			Locality: 0.6, FFRatio: 0.15,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, sq)
	}
	return cs
}

// imbalanceBound is each heuristic's documented balance bound (see the
// doc comment on the corresponding constructor). Cones has no constant
// bound — its greedy list-scheduling bound depends on the heaviest fanin
// cone and is checked separately.
var imbalanceBound = map[Method]float64{
	MethodStrings:    1.25,
	MethodKL:         1.25,
	MethodFM:         1.35,
	MethodAnneal:     2.0,
	MethodMultilevel: 1.40,
}

// recountCut recomputes the directed cross-block link count from scratch,
// independently of Partition.CutLinks: one count per (driver gate,
// consumer block) pair with the consumer in a foreign block.
func recountCut(c *circuit.Circuit, p *Partition) int {
	pairs := map[int]struct{}{}
	for g := range c.Kinds {
		for _, dst := range c.FanoutAdj.Row(circuit.GateID(g)) {
			if p.Assign[dst] != p.Assign[g] {
				pairs[g*p.Blocks+p.Assign[dst]] = struct{}{}
			}
		}
	}
	return len(pairs)
}

// maxConeWeight computes the heaviest full transitive-fanin cone over all
// gates (each gate's cone includes itself). Every item the Cones heuristic
// places is a subset of some gate's full cone, so this bounds the heaviest
// placed item from above.
func maxConeWeight(c *circuit.Circuit, w Weights) float64 {
	var best float64
	mark := make([]int, len(c.Kinds))
	for root := 0; root < len(c.Kinds); root++ {
		stamp := root + 1
		var sum float64
		stack := []circuit.GateID{circuit.GateID(root)}
		mark[root] = stamp
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sum += w[g]
			for _, f := range c.FaninAdj.Row(g) {
				if mark[f] != stamp {
					mark[f] = stamp
					stack = append(stack, f)
				}
			}
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// TestPartitionProperties sweeps random circuits across the real
// heuristics and part counts, asserting for every combination:
//
//   - the partition validates and has the requested part count;
//   - every gate is assigned exactly once (BlockGates is an exact
//     disjoint cover);
//   - the reported cut equals an independently recomputed cut;
//   - imbalance stays within the heuristic's documented bound.
func TestPartitionProperties(t *testing.T) {
	methods := []Method{
		MethodStrings, MethodCones, MethodKL, MethodFM, MethodAnneal, MethodMultilevel,
	}
	ks := []int{2, 3, 5, 8}
	if testing.Short() {
		ks = []int{2, 5}
	}
	for ci, c := range propertyCorpus(t) {
		w := WeightsUniform(c)
		maxCone := maxConeWeight(c, w)
		total := float64(len(c.Kinds))
		for _, m := range methods {
			for _, k := range ks {
				p, err := New(m, c, k, Options{Seed: int64(ci) + 1, AnnealMoves: 4000})
				if err != nil {
					t.Fatalf("circuit %d %v k=%d: %v", ci, m, k, err)
				}
				if err := p.Validate(c); err != nil {
					t.Fatalf("circuit %d %v k=%d: %v", ci, m, k, err)
				}
				if p.Blocks != k {
					t.Fatalf("circuit %d %v: Blocks = %d, want %d", ci, m, p.Blocks, k)
				}

				// Exact disjoint cover: each gate appears in exactly the
				// block Assign names, and nowhere else.
				seen := make([]int, len(c.Kinds))
				for b, gates := range p.BlockGates() {
					for _, g := range gates {
						seen[g]++
						if p.Assign[g] != b {
							t.Fatalf("circuit %d %v k=%d: gate %d listed in block %d but assigned %d",
								ci, m, k, g, b, p.Assign[g])
						}
					}
				}
				for g, n := range seen {
					if n != 1 {
						t.Fatalf("circuit %d %v k=%d: gate %d assigned %d times", ci, m, k, g, n)
					}
				}

				if got, want := p.CutLinks(c), recountCut(c, p); got != want {
					t.Errorf("circuit %d %v k=%d: CutLinks = %d, independent recount = %d",
						ci, m, k, got, want)
				}

				im := p.Imbalance(w)
				if m == MethodCones {
					// Greedy list-scheduling bound with the independently
					// computed heaviest possible item.
					bound := 1 + maxCone/(total/float64(k))
					if im > bound {
						t.Errorf("circuit %d cones k=%d: imbalance %.3f exceeds greedy bound %.3f",
							ci, k, im, bound)
					}
				} else if bound := imbalanceBound[m]; im > bound {
					t.Errorf("circuit %d %v k=%d: imbalance %.3f exceeds documented bound %.2f",
						ci, m, k, im, bound)
				}
			}
		}
	}
}
