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
// Gate.Fanin is a view of its row, and the dense kind and
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
		if len(c.Kinds) != n || len(c.Delays) != n ||
			len(c.FaninAdj.Off) != n+1 || len(c.FanoutAdj.Off) != n+1 {
			t.Fatalf("corpus %d: flat array lengths do not match %d gates", ci, n)
		}
		for id := 0; id < n; id++ {
			g := circuit.GateID(id)
			where := fmt.Sprintf("corpus %d gate %q", ci, c.Gates[id].Name)
			if !slices.Equal(c.FaninAdj.Row(g), wantFanin[id]) || !slices.Equal(c.Gates[id].Fanin, wantFanin[id]) {
				t.Fatalf("%s: fanin row %v, view %v, want %v", where, c.FaninAdj.Row(g), c.Gates[id].Fanin, wantFanin[id])
			}
			if !slices.Equal(c.FanoutAdj.Row(g), want[id]) {
				t.Fatalf("%s: fanout row %v, want %v", where, c.FanoutAdj.Row(g), want[id])
			}
			if len(wantFanin[id]) > 0 && &c.Gates[id].Fanin[0] != &c.FaninAdj.Row(g)[0] {
				t.Fatalf("%s: Gate.Fanin is a copy, not a view of the flat array", where)
			}
			if c.Kinds[id] != c.Gates[id].Kind || c.Delays[id] != c.Gates[id].Delay {
				t.Fatalf("%s: dense kind/delay (%v,%d) differ from the gate's (%v,%d)",
					where, c.Kinds[id], c.Delays[id], c.Gates[id].Kind, c.Gates[id].Delay)
			}
		}
	}
}

// TestFromFlatAdoptsNameTable: a name table passed to FromFlat becomes the
// circuit's, and one that does not map exactly the gates' names to their
// own gates is refused.
func TestFromFlatAdoptsNameTable(t *testing.T) {
	build := func(byName map[string]circuit.GateID) (*circuit.Circuit, error) {
		return circuit.FromFlat(
			[]circuit.Kind{circuit.Input, circuit.Not, circuit.Output},
			[]circuit.Tick{1, 2, 1},
			[]string{"a", "n", "y"},
			circuit.Adj{Off: []int32{0, 0, 1, 2}, Idx: []circuit.GateID{0, 1}},
			[]circuit.GateID{0}, []circuit.GateID{2}, byName)
	}
	c, err := build(map[string]circuit.GateID{"a": 0, "n": 1, "y": 2})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := c.ByName("n"); !ok || id != 1 {
		t.Fatalf("ByName(n) = %d, %v", id, ok)
	}
	for _, bad := range []map[string]circuit.GateID{
		{"a": 0, "n": 1},                 // a gate missing
		{"a": 0, "n": 2, "y": 1},         // names swapped
		{"a": 0, "n": 1, "y": 2, "z": 1}, // an extra name
		{"a": 0, "n": 1, "y": 7},         // an ID out of range
	} {
		if _, err := build(bad); err == nil {
			t.Fatalf("name table %v was accepted", bad)
		}
	}
	if c, err := build(nil); err != nil || c.NumGates() != 3 {
		t.Fatalf("built table: %v", err)
	}
}

// TestLevelizeLevels checks the Levels contract on the generator corpus:
// they equal the reference levelization; every non-source gate appears
// once, ascending within its level; a combinational gate sits one level
// past its deepest combinational driver; and the sequential gates form
// the last level.
func TestLevelizeLevels(t *testing.T) {
	for _, name := range []string{"c17", "s27", "mul6", "counter8", "dag300", "seq400"} {
		c, err := gen.ByName(name, gen.Fine(4, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		levels := c.Levels
		want, err := levelizeReference(c.Gates)
		if err != nil || !equalLevels(levels, want) {
			t.Fatalf("%s: Levels differ from the reference levelization (%v)", name, err)
		}
		at := make([]int, c.NumGates()) // 1-based level, 0 = not placed
		for l, lv := range levels {
			for i, g := range lv {
				if at[g] != 0 || (i > 0 && lv[i-1] >= g) {
					t.Fatalf("%s: gate %d placed twice or out of order", name, g)
				}
				at[g] = l + 1
			}
		}
		for id, k := range c.Kinds {
			switch {
			case k.Source():
				if at[id] != 0 {
					t.Fatalf("%s: source %d placed", name, id)
				}
			case k.Sequential():
				if at[id] != len(levels) {
					t.Fatalf("%s: sequential gate %d at level %d of %d", name, id, at[id], len(levels))
				}
			default:
				want := 1
				for _, f := range c.FaninAdj.Row(circuit.GateID(id)) {
					if fk := c.Kinds[f]; !fk.Source() && !fk.Sequential() && at[f]+1 > want {
						want = at[f] + 1
					}
				}
				if at[id] != want {
					t.Fatalf("%s: gate %d at level %d, want %d", name, id, at[id], want)
				}
			}
		}
	}
}
