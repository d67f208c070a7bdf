package partition

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestConeSplitBoundaryProperty: every cross-block link either leaves a
// source/sequential driver (the synchronization boundary by design) or
// lands on a sequential reader's clock pin — a combinational net never
// crosses between two combinational gates.
func TestConeSplitBoundaryProperty(t *testing.T) {
	seqc, err := gen.RandomSeq(gen.RandomConfig{Gates: 400, Inputs: 10, Outputs: 6, Seed: 4, FFRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{testCircuit(t), seqc} {
		for _, k := range []int{1, 2, 4, 9} {
			p, cones := ConeSplit(c, k, WeightsUniform(c))
			if err := p.Validate(c); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if cones < 1 {
				t.Fatalf("k=%d: %d cones", k, cones)
			}
			for g := range c.Gates {
				src := circuit.GateID(g)
				kind := c.Gates[g].Kind
				for _, dst := range c.Fanout[src] {
					if p.Assign[src] == p.Assign[dst] {
						continue
					}
					if kind.Source() || kind.Sequential() || c.Gates[dst].Kind.Sequential() {
						continue
					}
					t.Fatalf("k=%d: combinational net %d (%v) crosses to combinational gate %d (%v)",
						k, src, kind, dst, c.Gates[dst].Kind)
				}
			}
		}
	}
}

// TestConeSplitExactCoverAndDeterminism: the assignment covers every gate,
// is deterministic, and packs whole cones (a cone's gates share a block).
func TestConeSplitExactCoverAndDeterminism(t *testing.T) {
	c := testCircuit(t)
	w := WeightsUniform(c)
	p1, n1 := ConeSplit(c, 4, w)
	p2, n2 := ConeSplit(c, 4, w)
	if n1 != n2 {
		t.Fatalf("cone count nondeterministic: %d vs %d", n1, n2)
	}
	for g := range p1.Assign {
		if p1.Assign[g] != p2.Assign[g] {
			t.Fatalf("assignment nondeterministic at gate %d", g)
		}
	}
	// Whole-cone packing: both endpoints of a comb-comb edge share a block.
	for g := range c.Gates {
		if c.Gates[g].Kind.Source() || c.Gates[g].Kind.Sequential() {
			continue
		}
		for _, f := range c.Gates[g].Fanin {
			if fk := c.Gates[f].Kind; fk.Source() || fk.Sequential() {
				continue
			}
			if p1.Assign[g] != p1.Assign[f] {
				t.Fatalf("cone split across blocks: %d and its fanin %d", g, f)
			}
		}
	}
}

// TestConeSplitMethodRegistration: the Method plumbing (String, ParseMethod,
// New) reaches ConeSplit, and k exceeding the cone count stays valid (the
// surplus blocks are simply empty — cones are never split).
func TestConeSplitMethodRegistration(t *testing.T) {
	if MethodConeSplit.String() != "cone-split" {
		t.Fatalf("String() = %q", MethodConeSplit.String())
	}
	m, err := ParseMethod("cone-split")
	if err != nil || m != MethodConeSplit {
		t.Fatalf("ParseMethod: %v %v", m, err)
	}
	b := circuit.NewBuilder()
	a := b.Input("a")
	x := b.Gate(circuit.Not, "x", a)
	y := b.Gate(circuit.And, "y", a, x)
	b.Output("o", y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(MethodConeSplit, c, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	if p.Blocks != 8 {
		t.Fatalf("Blocks = %d", p.Blocks)
	}
	// One comb cone: every gate of it lands together.
	o, _ := c.ByName("o")
	if p.Assign[x] != p.Assign[y] || p.Assign[y] != p.Assign[o] {
		t.Fatalf("single cone split: %v", p.Assign)
	}
}

// TestLocalCutLinksMultiPin is the regression for the annealing delta bug:
// a gate reading one net through two pins (the exact shape structural
// hashing produces when it merges a gate's two fanin drivers) must count
// that net's cut contribution once, not once per pin.
func TestLocalCutLinksMultiPin(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	x := b.Gate(circuit.Not, "x", a)
	y := b.Gate(circuit.Xor, "y", x, x) // two pins, one net
	b.Output("o", y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	o, _ := c.ByName("o")
	assign := make([]int, c.NumGates())
	assign[a], assign[x] = 0, 0
	assign[y], assign[o] = 1, 1
	seen := newBlockSet(2)
	// Nets incident to y: its own output (crosses to nobody foreign — o is
	// in y's block) and the single fanin net x, which crosses once.
	if got := localCutLinks(c, assign, y, seen); got != 1 {
		t.Fatalf("localCutLinks(y) = %d, want 1 (multi-pin fanin double-counted)", got)
	}
	// The same quantity via the deduplicated Circuit.Fanout agrees.
	if got := netCutLinks(c, assign, x, seen); got != 1 {
		t.Fatalf("netCutLinks(x) = %d, want 1", got)
	}
	// A genuinely distinct pair of fanin nets still counts both.
	assign[x] = 1
	// y's fanin net x now internal; net a->x crosses? a in 0, x in 1: the
	// nets incident to x are its output (read by y, same block: 0 cut) and
	// fanin a (crossing into block 1: 1 cut).
	if got := localCutLinks(c, assign, x, seen); got != 1 {
		t.Fatalf("localCutLinks(x) = %d, want 1", got)
	}
}

// TestAnnealMultiPinCircuit: annealing over a circuit full of multi-pin
// reads stays valid and its cost bookkeeping does not corrupt the final
// partition (pre-fix, the doubled deltas biased accept/reject decisions).
func TestAnnealMultiPinCircuit(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	prev := a
	for i := 0; i < 60; i++ {
		n := b.Gate(circuit.Not, nameN("n", i), prev)
		prev = b.Gate(circuit.Xor, nameN("p", i), n, n)
	}
	b.Output("o", prev)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Anneal(c, 3, WeightsUniform(c), 5, 4000)
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
}
