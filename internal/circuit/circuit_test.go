package circuit

import (
	"testing"

	"repro/internal/logic"
)

// buildNand2 builds a two-input NAND with named IO for reuse in tests.
func buildNand2(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	n := b.Gate(Nand, "n1", a, bb)
	b.Output("y", n)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuilderBasics(t *testing.T) {
	c := buildNand2(t)
	if len(c.Kinds) != 4 {
		t.Fatalf("gates = %d, want 4", len(c.Kinds))
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		t.Fatalf("IO counts wrong: %d in, %d out", len(c.Inputs), len(c.Outputs))
	}
	id, ok := c.ByName("n1")
	if !ok {
		t.Fatal("ByName(n1) missing")
	}
	if c.Kinds[id] != Nand {
		t.Fatalf("gate n1 kind = %v", c.Kinds[id])
	}
	if _, ok := c.ByName("nope"); ok {
		t.Fatal("ByName(nope) found")
	}
}

func TestBuilderDuplicateName(t *testing.T) {
	b := NewBuilder()
	b.Input("a")
	b.Input("a")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestBuilderEmptyName(t *testing.T) {
	b := NewBuilder()
	b.Input("")
	if _, err := b.Build(); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestBuilderUndefinedFanin(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	b.Gate(And, "g", a, GateID(99))
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined fanin accepted")
	}
}

func TestBuilderBadArity(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	g := Gate{Kind: Mux2, Name: "m", Fanin: []GateID{a, bb}, Delay: 1}
	b.gates = append(b.gates, g)
	b.byName["m"] = GateID(len(b.gates) - 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("2-input mux accepted")
	}
}

func TestBuilderNegativeFaninFromFailedGate(t *testing.T) {
	b := NewBuilder()
	bad := b.Gate(And, "g") // zero-input AND is allowed (n-ary >= 1? no: min 1)
	_ = bad
	if _, err := b.Build(); err == nil {
		t.Fatal("zero-input AND accepted")
	}
}

func TestCombinationalCycleRejected(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	// g1 and g2 form a combinational loop.
	g1 := b.add(Gate{Kind: And, Name: "g1", Fanin: []GateID{a, 3}, Delay: 1})
	_ = g1
	b.add(Gate{Kind: And, Name: "g2", Fanin: []GateID{1}, Delay: 1})
	b.add(Gate{Kind: Buf, Name: "g3", Fanin: []GateID{2}, Delay: 1})
	if _, err := b.Build(); err == nil {
		t.Fatal("combinational cycle accepted")
	}
}

func TestSequentialCycleAccepted(t *testing.T) {
	// A DFF in a feedback loop (e.g. a toggle register) is legal.
	b := NewBuilder()
	clk := b.Input("clk")
	// Forward-declare by building in two steps: inv reads dff, dff reads inv.
	dff := b.add(Gate{Kind: DFF, Name: "q", Fanin: nil, Delay: 1})
	inv := b.Gate(Not, "nq", dff)
	b.gates[dff].Fanin = []GateID{inv, clk}
	b.Output("y", dff)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
	if err := c.CheckEventDriven(); err != nil {
		t.Fatalf("CheckEventDriven: %v", err)
	}
}

func TestLatchCycleThroughLatchAccepted(t *testing.T) {
	// Cross-coupled structure expressed with DLatch primitives is legal
	// because latches are state elements.
	b := NewBuilder()
	en := b.Input("en")
	d := b.Input("d")
	l1 := b.Gate(DLatch, "l1", d, en)
	b.Output("q", l1)
	if _, err := b.Build(); err != nil {
		t.Fatalf("latch circuit rejected: %v", err)
	}
}

func TestCheckEventDrivenRejectsZeroDelay(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	b.GateDelay(Not, "n", 0, a)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := c.CheckEventDriven(); err == nil {
		t.Fatal("zero-delay gate accepted by CheckEventDriven")
	}
}

func TestFanoutComputedAndDeduped(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	// x reads a twice (both XOR pins): fanout must list x once.
	x := b.Gate(Xor, "x", a, a)
	y := b.Gate(Not, "y", a)
	b.Output("o1", x)
	b.Output("o2", y)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	fo := c.FanoutAdj.Row(a)
	if len(fo) != 2 || fo[0] != x || fo[1] != y {
		t.Fatalf("fanout of a = %v, want [%d %d]", fo, x, y)
	}
}

func TestMinMaxDelay(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	g1 := b.GateDelay(Not, "g1", 3, a)
	b.GateDelay(Buf, "g2", 7, g1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.MinDelay() != 1 { // the Output-less circuit still has input delay 1
		// Inputs are sources, excluded; gates g1(3), g2(7): min is 3.
		t.Logf("note: min delay = %d", c.MinDelay())
	}
	if got := c.MinDelay(); got != 3 {
		t.Fatalf("MinDelay = %d, want 3", got)
	}
	if got := c.MaxDelay(); got != 7 {
		t.Fatalf("MaxDelay = %d, want 7", got)
	}
}

func TestKindStringAndValidity(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if !k.Valid() {
			t.Errorf("kind %d not valid", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Kind(200).Valid() {
		t.Error("Kind(200) valid")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("Kind(200).String() = %q", Kind(200).String())
	}
}

func TestEvaluateCombinational(t *testing.T) {
	v0, v1, vx := logic.Zero, logic.One, logic.X
	cases := []struct {
		kind  Kind
		fanin []logic.Value
		want  logic.Value
	}{
		{Buf, []logic.Value{v1}, v1},
		{Buf, []logic.Value{logic.H}, v1},
		{Output, []logic.Value{logic.L}, v0},
		{Not, []logic.Value{v1}, v0},
		{And, []logic.Value{v1, v1, v0}, v0},
		{And, []logic.Value{v1, v1, v1}, v1},
		{Nand, []logic.Value{v1, v1}, v0},
		{Or, []logic.Value{v0, v0, v1}, v1},
		{Nor, []logic.Value{v0, v0}, v1},
		{Xor, []logic.Value{v1, v1, v1}, v1},
		{Xnor, []logic.Value{v1, v0}, v0},
		{Mux2, []logic.Value{v0, v0, v1}, v0}, // sel=0 -> d0
		{Mux2, []logic.Value{v1, v0, v1}, v1}, // sel=1 -> d1
		{Mux2, []logic.Value{vx, v1, v1}, v1}, // unknown sel, agreeing data
		{Mux2, []logic.Value{vx, v0, v1}, vx}, // unknown sel, conflicting data
		{Tri, []logic.Value{v1, v0}, v0},      // enabled
		{Tri, []logic.Value{v0, v1}, logic.Z}, // disabled
		{Tri, []logic.Value{vx, v1}, vx},      // unknown enable
		{Resolve, []logic.Value{logic.Z, v1}, v1},
		{Resolve, []logic.Value{v0, v1}, vx},
		{Const0, nil, v0},
		{Const1, nil, v1},
		{ConstX, nil, vx},
	}
	for _, c := range cases {
		got, _ := Evaluate(c.kind, c.fanin, logic.U, logic.U)
		if got != c.want {
			t.Errorf("Evaluate(%v, %v) = %v, want %v", c.kind, c.fanin, got, c.want)
		}
	}
}

func TestEvaluateInputHolds(t *testing.T) {
	got, _ := Evaluate(Input, nil, logic.One, logic.U)
	if got != logic.One {
		t.Fatalf("Input evaluation must hold the driven value, got %v", got)
	}
}

func TestEvaluateDFF(t *testing.T) {
	d, clk := logic.One, logic.One
	// Rising edge loads D.
	out, cs := Evaluate(DFF, []logic.Value{d, clk}, logic.Zero, logic.Zero)
	if out != logic.One || cs != logic.One {
		t.Fatalf("rising edge: out=%v cs=%v", out, cs)
	}
	// High clock with no edge holds.
	out, _ = Evaluate(DFF, []logic.Value{logic.Zero, logic.One}, logic.One, logic.One)
	if out != logic.One {
		t.Fatalf("no edge must hold, got %v", out)
	}
	// Falling edge holds.
	out, cs = Evaluate(DFF, []logic.Value{logic.Zero, logic.Zero}, logic.One, logic.One)
	if out != logic.One || cs != logic.Zero {
		t.Fatalf("falling edge: out=%v cs=%v", out, cs)
	}
	// Ambiguous (unknown -> high) transition produces X.
	out, _ = Evaluate(DFF, []logic.Value{logic.One, logic.One}, logic.Zero, logic.X)
	if out != logic.X {
		t.Fatalf("ambiguous edge must give X, got %v", out)
	}
	// Weak clock levels count as levels.
	out, _ = Evaluate(DFF, []logic.Value{logic.One, logic.H}, logic.Zero, logic.L)
	if out != logic.One {
		t.Fatalf("weak rising edge must load, got %v", out)
	}
}

func TestEvaluateDLatch(t *testing.T) {
	// Transparent while enabled.
	out, _ := Evaluate(DLatch, []logic.Value{logic.One, logic.One}, logic.Zero, logic.U)
	if out != logic.One {
		t.Fatalf("transparent latch: got %v", out)
	}
	// Holds while disabled.
	out, _ = Evaluate(DLatch, []logic.Value{logic.Zero, logic.Zero}, logic.One, logic.U)
	if out != logic.One {
		t.Fatalf("opaque latch: got %v", out)
	}
	// Unknown enable with agreeing value keeps it.
	out, _ = Evaluate(DLatch, []logic.Value{logic.One, logic.X}, logic.One, logic.U)
	if out != logic.One {
		t.Fatalf("agreeing unknown-enable: got %v", out)
	}
	// Unknown enable with conflicting value degrades to X.
	out, _ = Evaluate(DLatch, []logic.Value{logic.Zero, logic.X}, logic.One, logic.U)
	if out != logic.X {
		t.Fatalf("conflicting unknown-enable: got %v", out)
	}
}

func TestInitStateProjection(t *testing.T) {
	c := buildNand2(t)
	val, prevClk := InitState(c, logic.TwoValued)
	for i, v := range val {
		if v != logic.Zero && v != logic.One {
			t.Fatalf("2-valued init val[%d] = %v", i, v)
		}
	}
	for i, v := range prevClk {
		if v != logic.Zero && v != logic.One {
			t.Fatalf("2-valued init prevClk[%d] = %v", i, v)
		}
	}
	val9, _ := InitState(c, logic.NineValued)
	for i, v := range val9 {
		if v != logic.U {
			t.Fatalf("9-valued init val[%d] = %v, want U", i, v)
		}
	}
}

func TestLevelizeChain(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	g1 := b.Gate(Not, "g1", a)
	g2 := b.Gate(Not, "g2", g1)
	g3 := b.Gate(Not, "g3", g2)
	b.Output("y", g3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := c.Levels
	if len(levels) != 4 {
		t.Fatalf("chain of 3 + output: %d levels, want 4", len(levels))
	}
	for i, l := range levels {
		if len(l) != 1 {
			t.Fatalf("level %d has %d gates", i, len(l))
		}
	}
}

func TestLevelizeRespectsDependencies(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	g1 := b.Gate(And, "g1", a, bb)
	g2 := b.Gate(Or, "g2", g1, a)
	g3 := b.Gate(Xor, "g3", g2, g1)
	b.Output("y", g3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := c.Levels
	pos := map[GateID]int{}
	for i, l := range levels {
		for _, g := range l {
			pos[g] = i
		}
	}
	for id, k := range c.Kinds {
		if k.Source() || k.Sequential() {
			continue
		}
		for _, f := range c.FaninAdj.Row(GateID(id)) {
			if fk := c.Kinds[f]; fk.Source() || fk.Sequential() {
				continue
			}
			if pos[f] >= pos[GateID(id)] {
				t.Fatalf("gate %q at level %d not after fanin %q at level %d",
					c.Name(GateID(id)), pos[GateID(id)], c.Name(f), pos[f])
			}
		}
	}
}

func TestLevelizeSequentialLast(t *testing.T) {
	b := NewBuilder()
	clk := b.Input("clk")
	d := b.Input("d")
	inv := b.Gate(Not, "inv", d)
	ff := b.Gate(DFF, "ff", inv, clk)
	post := b.Gate(Not, "post", ff)
	b.Output("y", post)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := c.Levels
	last := levels[len(levels)-1]
	foundFF := false
	for _, g := range last {
		if g == ff {
			foundFF = true
		}
	}
	if !foundFF {
		t.Fatalf("DFF not in final level: %v", levels)
	}
	// "post" reads the FF output and must NOT be after the FF level; it is
	// combinational from a level-0 source (the FF's registered output).
	if last[0] != ff || len(last) != 1 {
		t.Fatalf("final level should contain only the DFF, got %v", last)
	}
}

func TestLevelsCoverAllNonSources(t *testing.T) {
	c := buildNand2(t)
	placed := 0
	for _, l := range c.Levels {
		placed += len(l)
	}
	want := 0
	for id := range c.Kinds {
		if !c.Kinds[id].Source() {
			want++
		}
	}
	if placed != want {
		t.Fatalf("Levels hold %d gates, want %d", placed, want)
	}
}

func TestComputeStats(t *testing.T) {
	b := NewBuilder()
	clk := b.Input("clk")
	d := b.Input("d")
	g1 := b.Gate(And, "g1", d, d)
	ff := b.Gate(DFF, "ff", g1, clk)
	lt := b.Gate(DLatch, "lt", ff, clk)
	b.Output("y", lt)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := c.ComputeStats()
	if s.Gates != 6 || s.Inputs != 2 || s.Outputs != 1 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.FlipFlops != 1 || s.Latches != 1 {
		t.Fatalf("seq counts wrong: %+v", s)
	}
	if s.ByKind[And] != 1 || s.ByKind[Input] != 2 {
		t.Fatalf("ByKind wrong: %v", s.ByKind)
	}
	if s.MaxFanout < 2 { // clk feeds ff and lt
		t.Fatalf("MaxFanout = %d", s.MaxFanout)
	}
	if s.AvgFanout <= 0 {
		t.Fatalf("AvgFanout = %f", s.AvgFanout)
	}
}

func TestConstBuilder(t *testing.T) {
	b := NewBuilder()
	c0 := b.Const("c0", logic.Zero)
	c1 := b.Const("c1", logic.One)
	cx := b.Const("cx", logic.X)
	g := b.Gate(And, "g", c0, c1, cx)
	b.Output("y", g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Kinds[c0] != Const0 || c.Kinds[c1] != Const1 || c.Kinds[cx] != ConstX {
		t.Fatal("Const kinds wrong")
	}
}

// TestGateRecordsConstructor builds a circuit from gate records with
// forward references, the way Builder.Build does.
func TestGateRecordsConstructor(t *testing.T) {
	gates := []Gate{
		{Kind: Input, Name: "a", Delay: 1},
		{Kind: DFF, Name: "q", Fanin: []GateID{2, 3}, Delay: 1}, // forward refs
		{Kind: Not, Name: "nq", Fanin: []GateID{1}, Delay: 1},
		{Kind: Input, Name: "clk", Delay: 1},
		{Kind: Output, Name: "y", Fanin: []GateID{1}, Delay: 1},
	}
	c, err := fromGates(gates, []GateID{0, 3}, []GateID{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Kinds) != 5 || len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		t.Fatalf("shape wrong: %d gates", len(c.Kinds))
	}
	if id, ok := c.ByName("nq"); !ok || id != 2 {
		t.Fatal("byName not built")
	}
	// Fanout computed: gate 1 (q) feeds nq and y.
	if fo := c.FanoutAdj.Row(1); len(fo) != 2 {
		t.Fatalf("fanout of q = %v", fo)
	}
}

func TestGateRecordsRejected(t *testing.T) {
	good := []Gate{
		{Kind: Input, Name: "a", Delay: 1},
		{Kind: Not, Name: "n", Fanin: []GateID{0}, Delay: 1},
	}
	if _, err := fromGates([]Gate{{Kind: Input, Name: "", Delay: 1}}, nil, nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	dup := []Gate{
		{Kind: Input, Name: "a", Delay: 1},
		{Kind: Input, Name: "a", Delay: 1},
	}
	if _, err := fromGates(dup, nil, nil, nil); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := fromGates(good, []GateID{9}, nil, nil); err == nil {
		t.Error("bad input id accepted")
	}
	if _, err := fromGates(good, nil, []GateID{-1}, nil); err == nil {
		t.Error("bad output id accepted")
	}
	if _, err := fromGates(good, []GateID{1}, nil, nil); err == nil {
		t.Error("non-Input gate listed as an input accepted")
	}
	if _, err := fromGates(good, nil, []GateID{1}, nil); err == nil {
		t.Error("non-Output gate listed as an output accepted")
	}
	cyc := []Gate{
		{Kind: Input, Name: "a", Delay: 1},
		{Kind: Not, Name: "x", Fanin: []GateID{2}, Delay: 1},
		{Kind: Not, Name: "y", Fanin: []GateID{1}, Delay: 1},
	}
	if _, err := fromGates(cyc, nil, nil, nil); err == nil {
		t.Error("combinational cycle accepted")
	}
}
