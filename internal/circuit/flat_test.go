package circuit_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// records lists c's gates as the records Builder takes: each fanin a
// copy, nil for a source.
func records(c *circuit.Circuit) []circuit.Gate {
	gates := make([]circuit.Gate, len(c.Kinds))
	for id := range gates {
		g := circuit.GateID(id)
		gates[id] = circuit.Gate{Kind: c.Kinds[g], Name: c.Name(g), Delay: c.Delays[g]}
		if row := c.FaninAdj.Row(g); len(row) > 0 {
			gates[id].Fanin = slices.Clone(row)
		}
	}
	return gates
}

// viaFlat builds gates through FromFlat, laying the records out flat the
// way the .bench reader and the codec do.
func viaFlat(gates []circuit.Gate, inputs, outputs []circuit.GateID) (*circuit.Circuit, error) {
	kinds := make([]circuit.Kind, len(gates))
	delays := make([]circuit.Tick, len(gates))
	nameOff := []int32{0}
	fanin := circuit.Adj{Off: []int32{0}, Idx: []circuit.GateID{}}
	var names strings.Builder
	for id, g := range gates {
		kinds[id], delays[id] = g.Kind, g.Delay
		names.WriteString(g.Name)
		nameOff = append(nameOff, int32(names.Len()))
		fanin.Idx = append(fanin.Idx, g.Fanin...)
		fanin.Off = append(fanin.Off, int32(len(fanin.Idx)))
	}
	return circuit.FromFlat(kinds, delays, names.String(), nameOff, fanin, inputs, outputs, nil)
}

// viaBuilder declares gates through a Builder in ID order and wires every
// fanin afterwards, so feedback and forward references are expressible.
// An Output marker is declared with its source, which must come first.
func viaBuilder(gates []circuit.Gate) (*circuit.Circuit, error) {
	b := circuit.NewBuilder()
	for _, g := range gates {
		switch g.Kind {
		case circuit.Input:
			b.Input(g.Name)
		case circuit.Const0, circuit.Const1, circuit.ConstX:
			b.Const(g.Name, circuit.InitialValue(g.Kind))
		case circuit.Output:
			b.Output(g.Name, g.Fanin[0])
		default:
			b.GateDelay(g.Kind, g.Name, g.Delay)
		}
	}
	for id, g := range gates {
		if g.Kind != circuit.Output && len(g.Fanin) > 0 {
			b.SetFanin(circuit.GateID(id), g.Fanin)
		}
	}
	return b.Build()
}

// TestConstructorsAgree builds each corpus netlist from one list of gate
// records two ways — through Builder and FromFlat — and checks that the
// circuits agree with each other and with the source on every array and
// accessor, that Gate(id) gives back the record fed in, and that each
// fanout row lists the readers of its net ascending with duplicates
// removed.
func TestConstructorsAgree(t *testing.T) {
	corpus := map[string]*circuit.Circuit{}
	for _, name := range []string{"c17", "s27"} {
		c, err := gen.ByName(name, gen.Unit, 1)
		if err != nil {
			t.Fatal(err)
		}
		corpus[name] = c
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, name := range []string{"dag60", "dag300", "seq80", "seq400"} {
			c, err := gen.ByName(name, gen.Fine(4, seed), seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			corpus[fmt.Sprintf("%s/%d", name, seed)] = c
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
	corpus["repeated-pins"] = dup

	for name, src := range corpus {
		gates := records(src)
		built := map[string]*circuit.Circuit{}
		var errs [2]error
		built["Builder"], errs[0] = viaBuilder(gates)
		built["FromFlat"], errs[1] = viaFlat(gates, src.Inputs, src.Outputs)
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		fanout := make([][]circuit.GateID, len(gates))
		for id, g := range gates {
			for _, f := range g.Fanin {
				if row := fanout[f]; !slices.Contains(row, circuit.GateID(id)) {
					fanout[f] = append(row, circuit.GateID(id))
				}
			}
		}
		for via, c := range built {
			where := name + " via " + via
			if c.NumGates() != len(gates) || len(c.Gates) != len(gates) {
				t.Fatalf("%s: %d gates, %d entries, want %d", where, c.NumGates(), len(c.Gates), len(gates))
			}
			if !slices.Equal(c.Kinds, src.Kinds) || !slices.Equal(c.Delays, src.Delays) ||
				!reflect.DeepEqual(c.FaninAdj, src.FaninAdj) || !reflect.DeepEqual(c.FanoutAdj, src.FanoutAdj) ||
				!reflect.DeepEqual(c.Levels, src.Levels) ||
				!slices.Equal(c.Inputs, src.Inputs) || !slices.Equal(c.Outputs, src.Outputs) {
				t.Fatalf("%s: flat arrays differ from the source's", where)
			}
			for id, want := range gates {
				g := circuit.GateID(id)
				if got := c.Gate(g); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Gate(%d) = %+v, fed %+v", where, id, got, want)
				}
				if c.Name(g) != src.Name(g) || c.Gates[g].Kind != want.Kind {
					t.Fatalf("%s: gate %d named %q, kind entry %v", where, id, c.Name(g), c.Gates[g].Kind)
				}
				if by, ok := c.ByName(want.Name); !ok || by != g {
					t.Fatalf("%s: ByName(%q) = %d, %v", where, want.Name, by, ok)
				}
				if !slices.Equal(c.FanoutAdj.Row(g), fanout[id]) {
					t.Fatalf("%s: fanout row %d = %v, want %v", where, id, c.FanoutAdj.Row(g), fanout[id])
				}
			}
			if _, ok := c.ByName("no such gate"); ok {
				t.Fatalf("%s: ByName found a name no gate has", where)
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
			"any", []int32{0, 1, 2, 3},
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
	if c, err := build(nil); err != nil || len(c.Kinds) != 3 {
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
		want, err := levelizeReference(records(c))
		if err != nil || !equalLevels(levels, want) {
			t.Fatalf("%s: Levels differ from the reference levelization (%v)", name, err)
		}
		at := make([]int, len(c.Kinds)) // 1-based level, 0 = not placed
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

// TestRefusalsAgree pins each refusal's message and requires FromFlat,
// and Builder where it can express the netlist, to give it.
func TestRefusalsAgree(t *testing.T) {
	in := func(name string) circuit.Gate { return circuit.Gate{Kind: circuit.Input, Name: name, Delay: 1} }
	not := func(name string, fanin ...circuit.GateID) circuit.Gate {
		return circuit.Gate{Kind: circuit.Not, Name: name, Fanin: fanin, Delay: 1}
	}
	for _, tc := range []struct {
		gates           []circuit.Gate
		inputs, outputs []circuit.GateID
		builder         bool
		want            string
	}{
		{[]circuit.Gate{in("")}, nil, nil, true, `circuit: gate 0 has empty name`},
		{[]circuit.Gate{in("a"), in("a")}, nil, nil, true, `circuit: duplicate gate name "a" (gates 0 and 1)`},
		{[]circuit.Gate{in("a"), not("n", 0)}, []circuit.GateID{9}, nil, false, `circuit: io list references undefined gate 9`},
		{[]circuit.Gate{in("a"), not("n", 0)}, []circuit.GateID{1}, nil, false, `circuit: gate "n" (NOT) listed as INPUT`},
		{[]circuit.Gate{in("a"), not("n", 0)}, nil, []circuit.GateID{0}, false, `circuit: gate "a" (INPUT) listed as OUTPUT`},
		{[]circuit.Gate{{Kind: 99, Name: "k", Delay: 1}}, nil, nil, false, `circuit: gate "k": invalid kind`},
		{[]circuit.Gate{in("a"), not("n", 0, 0)}, nil, nil, true, `circuit: gate "n" (NOT): fanin count 2 outside [1,1]`},
		{[]circuit.Gate{in("a"), not("n", 9)}, nil, nil, false, `circuit: gate "n" references undefined gate 9`},
		{[]circuit.Gate{in("a"), not("x", 2), not("y", 1)}, nil, nil, true, `circuit: combinational cycle through gate "x"`},
	} {
		if c, err := viaFlat(tc.gates, tc.inputs, tc.outputs); c != nil || err == nil || err.Error() != tc.want {
			t.Errorf("FromFlat: %v, want %s", err, tc.want)
		}
		if _, err := viaBuilder(tc.gates); tc.builder && (err == nil || err.Error() != tc.want) {
			t.Errorf("Builder: %v, want %s", err, tc.want)
		}
	}
}
