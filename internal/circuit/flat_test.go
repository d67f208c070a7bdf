package circuit_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestFlatViewsMatchPerGateConstruction rebuilds each corpus circuit from
// a deep copy of its gate list and checks the flat storage against the
// per-gate construction it replaced: fanin rows keep pin order, fanout
// rows are the readers of each net ascending with duplicates removed,
// Gate.Fanin and Fanout are views of the same rows, and the dense kind and
// delay arrays repeat the gate fields.
func TestFlatViewsMatchPerGateConstruction(t *testing.T) {
	names := []string{"c17", "s27", "ripple8", "cla12", "mul6", "lfsr9", "counter8", "shift16", "dag300", "seq400"}
	var corpus []*circuit.Circuit
	for _, name := range names {
		for seed := int64(1); seed <= 3; seed++ {
			c, err := gen.ByName(name, gen.Fine(4, seed), seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			corpus = append(corpus, c)
		}
	}
	// A gate reading one net through several pins, and a net nobody reads.
	b := circuit.NewBuilder()
	a := b.Input("a")
	x := b.Input("x")
	g := b.Gate(circuit.And, "g", a, x, a)
	m := b.Gate(circuit.Mux2, "m", a, a, g)
	b.Output("y", m)
	b.Gate(circuit.Not, "dangling", x)
	dup, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corpus = append(corpus, dup)

	for ci, src := range corpus {
		gates := make([]circuit.Gate, len(src.Gates))
		for i, sg := range src.Gates {
			gates[i] = sg
			gates[i].Fanin = append([]circuit.GateID(nil), sg.Fanin...)
		}
		want := make([][]circuit.GateID, len(gates)) // the old computeFanout
		for id := range gates {
			for _, f := range gates[id].Fanin {
				want[f] = append(want[f], circuit.GateID(id))
			}
		}
		for i, fo := range want {
			sort.Slice(fo, func(a, b int) bool { return fo[a] < fo[b] })
			out := fo[:0]
			for j, g := range fo {
				if j == 0 || g != fo[j-1] {
					out = append(out, g)
				}
			}
			want[i] = out
		}
		wantFanin := make([][]circuit.GateID, len(gates))
		for i := range gates {
			wantFanin[i] = append([]circuit.GateID(nil), gates[i].Fanin...)
		}

		c, err := circuit.New(gates, src.Inputs, src.Outputs)
		if err != nil {
			t.Fatalf("corpus %d: %v", ci, err)
		}
		n := len(c.Gates)
		if len(c.Fanout) != n || len(c.Kinds) != n || len(c.Delays) != n ||
			len(c.FaninAdj.Off) != n+1 || len(c.FanoutAdj.Off) != n+1 {
			t.Fatalf("corpus %d: flat array lengths do not match %d gates", ci, n)
		}
		for id := 0; id < n; id++ {
			g := circuit.GateID(id)
			where := fmt.Sprintf("corpus %d gate %q", ci, c.Gates[id].Name)
			if !slices.Equal(c.FaninAdj.Row(g), wantFanin[id]) || !slices.Equal(c.Gates[id].Fanin, wantFanin[id]) {
				t.Fatalf("%s: fanin row %v, view %v, want %v", where, c.FaninAdj.Row(g), c.Gates[id].Fanin, wantFanin[id])
			}
			if !slices.Equal(c.FanoutAdj.Row(g), want[id]) || !slices.Equal(c.Fanout[id], want[id]) {
				t.Fatalf("%s: fanout row %v, view %v, want %v", where, c.FanoutAdj.Row(g), c.Fanout[id], want[id])
			}
			if len(wantFanin[id]) > 0 && &c.Gates[id].Fanin[0] != &c.FaninAdj.Row(g)[0] {
				t.Fatalf("%s: Gate.Fanin is a copy, not a view of the flat array", where)
			}
			if len(want[id]) > 0 && &c.Fanout[id][0] != &c.FanoutAdj.Row(g)[0] {
				t.Fatalf("%s: Fanout is a copy, not a view of the flat array", where)
			}
			if c.Kinds[id] != c.Gates[id].Kind || c.Delays[id] != c.Gates[id].Delay {
				t.Fatalf("%s: dense kind/delay (%v,%d) differ from the gate's (%v,%d)",
					where, c.Kinds[id], c.Delays[id], c.Gates[id].Kind, c.Gates[id].Delay)
			}
		}
	}
}
