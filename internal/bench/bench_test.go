package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/simtest"
)

func TestReadC17(t *testing.T) {
	c := bench.MustC17()
	st := c.ComputeStats()
	if st.Inputs != 5 || st.Outputs != 2 {
		t.Fatalf("c17 io = %d/%d", st.Inputs, st.Outputs)
	}
	if st.ByKind[circuit.Nand] != 6 {
		t.Fatalf("c17 NANDs = %d, want 6", st.ByKind[circuit.Nand])
	}
	if st.FlipFlops != 0 {
		t.Fatal("c17 has flip-flops")
	}
	// Functional check: c17's known truth behaviour for one vector.
	// With all inputs 0: 10=1, 11=1, 16=1, 19=1, 22=NAND(1,1)=0, 23=0.
	vals, err := simtest.Settle(c, map[string]logic.Value{
		"1": logic.Zero, "2": logic.Zero, "3": logic.Zero,
		"6": logic.Zero, "7": logic.Zero,
	})
	if err != nil {
		t.Fatal(err)
	}
	g22, _ := c.ByName("22")
	g23, _ := c.ByName("23")
	if vals[g22] != logic.Zero || vals[g23] != logic.Zero {
		t.Fatalf("c17(0...0) = %v,%v want 0,0", vals[g22], vals[g23])
	}
}

func TestReadS27(t *testing.T) {
	c := bench.MustS27()
	st := c.ComputeStats()
	if st.FlipFlops != 3 {
		t.Fatalf("s27 FFs = %d, want 3", st.FlipFlops)
	}
	// The implicit clock was synthesized and every DFF uses it.
	clk, ok := c.ByName("CLK")
	if !ok {
		t.Fatal("no synthesized CLK input")
	}
	for id := range c.Kinds {
		g := c.Gate(circuit.GateID(id))
		if g.Kind == circuit.DFF && g.Fanin[1] != clk {
			t.Fatalf("DFF %q not clocked by CLK", g.Name)
		}
	}
	if st.Inputs != 5 { // 4 declared + CLK
		t.Fatalf("s27 inputs = %d, want 5", st.Inputs)
	}
}

func TestForwardReferences(t *testing.T) {
	// G2 uses G3 before its definition.
	src := `INPUT(A)
OUTPUT(G2)
G2 = NOT(G3)
G3 = BUFF(A)
`
	c, err := bench.ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Kinds) != 4 {
		t.Fatalf("gates = %d", len(c.Kinds))
	}
}

func TestDelayExtensionRoundTrip(t *testing.T) {
	src := `INPUT(A)
INPUT(B)
OUTPUT(Y)
Y = NAND(A, B)
#@ delay Y 7
`
	c, err := bench.ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.ByName("Y")
	if c.Delays[y] != 7 {
		t.Fatalf("delay = %d, want 7", c.Delays[y])
	}
	out, err := bench.WriteString(c, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#@ delay Y 7") {
		t.Fatalf("delay annotation lost:\n%s", out)
	}
}

func TestRoundTripGeneratedCircuits(t *testing.T) {
	mk := []struct {
		name string
		c    func() (*circuit.Circuit, error)
	}{
		{"ripple", func() (*circuit.Circuit, error) { return gen.RippleAdder(6, gen.Fine(5, 1)) }},
		{"mul", func() (*circuit.Circuit, error) { return gen.ArrayMultiplier(4, gen.Unit) }},
		{"lfsr", func() (*circuit.Circuit, error) { return gen.LFSR(6, nil, gen.Unit) }},
		{"seq", func() (*circuit.Circuit, error) {
			return gen.RandomSeq(gen.RandomConfig{Gates: 120, Inputs: 6, Outputs: 4, Seed: 3, FFRatio: 0.2})
		}},
		{"dag-fine", func() (*circuit.Circuit, error) { return gen.ByName("dag2000", gen.Fine(4, 1), 1) }},
		{"seq-fine", func() (*circuit.Circuit, error) { return gen.ByName("seq4000", gen.Fine(4, 2), 2) }},
	}
	for _, m := range mk {
		orig, err := m.c()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		text, err := bench.WriteString(orig, m.name)
		if err != nil {
			t.Fatalf("%s write: %v", m.name, err)
		}
		back, err := bench.ReadString(text)
		if err != nil {
			t.Fatalf("%s reread: %v\n%s", m.name, err, text)
		}
		// Same gates in the same order as the reference reader builds.
		ref, err := readReference(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s reference: %v", m.name, err)
		}
		if structure(back) != structure(ref) {
			t.Fatalf("%s: Read and the reference disagree", m.name)
		}
		so, sb := orig.ComputeStats(), back.ComputeStats()
		if so.Outputs != sb.Outputs || so.FlipFlops != sb.FlipFlops {
			t.Fatalf("%s: stats changed: %+v vs %+v", m.name, so, sb)
		}
		// Gate population must survive modulo the clock input (generated
		// sequential circuits already have one named clk; the reader adds
		// CLK because .bench drops clock pins, so allow exactly that).
		extra := sb.Gates - so.Gates
		if extra != 0 && !(so.FlipFlops > 0 && extra == 1) {
			t.Fatalf("%s: gate count %d -> %d", m.name, so.Gates, sb.Gates)
		}
		// Every named original gate must exist with the same kind & delay.
		for id, k := range orig.Kinds {
			if k == circuit.Input || k == circuit.Output {
				continue
			}
			g := circuit.GateID(id)
			name := orig.Name(g)
			bg, ok := back.ByName(name)
			if !ok {
				t.Fatalf("%s: gate %q lost", m.name, name)
			}
			if back.Kinds[bg] != k || back.Delays[bg] != orig.Delays[g] {
				t.Fatalf("%s: gate %q changed: %v/%d -> %v/%d", m.name, name, k, orig.Delays[g], back.Kinds[bg], back.Delays[bg])
			}
		}
	}
}

// TestKeywordPrefixedNames: a signal whose name begins with INPUT or
// OUTPUT is defined like any other; only the keyword followed by "("
// declares.
func TestKeywordPrefixedNames(t *testing.T) {
	c, err := bench.ReadString("INPUT(a)\ninput_buf = BUFF(a)\nOUTPUTEN = NOT(a)\nOUTPUT(input_buf)\nOUTPUT (OUTPUTEN)\n")
	if err != nil {
		t.Fatal(err)
	}
	for name, kind := range map[string]circuit.Kind{"input_buf": circuit.Buf, "OUTPUTEN": circuit.Not} {
		id, ok := c.ByName(name)
		if !ok || c.Kinds[id] != kind {
			t.Fatalf("%s: defined %v, kind %v", name, ok, c.Kinds[id])
		}
	}
	if len(c.Inputs) != 1 || len(c.Outputs) != 2 {
		t.Fatalf("io = %d/%d, want 1/2", len(c.Inputs), len(c.Outputs))
	}
}

// TestParseErrors: each malformed netlist is refused, and the error names
// the line at fault.
func TestParseErrors(t *testing.T) {
	cases := []struct{ src, line string }{
		{"INPUT A\n", "line 1:"},                                // malformed INPUT
		{"OUTPUT()\n", "line 1:"},                               // empty OUTPUT name
		{"G1 = FROB(A)\nINPUT(A)\n", "line 1:"},                 // unknown op
		{"INPUT(A)\nG1 = NOT(B)\n", "line 2:"},                  // undefined signal
		{"INPUT(A)\nINPUT(A)\n", "line 2:"},                     // duplicate input
		{"INPUT(A)\nG1 = NOT(A)\nG1 = NOT(A)\n", "line 3:"},     // duplicate def
		{"INPUT(A)\nOUTPUT(Q)\n", "line 2:"},                    // undefined output
		{"INPUT(A)\nOUTPUT(A)\nOUTPUT(A)\n", "line 3:"},         // duplicate output marker
		{"garbage here\n", "line 1:"},                           // no '='
		{"G1 = NOT A\nINPUT(A)\n", "line 1:"},                   // missing parens
		{"INPUT(A)\nG1 = DFF(A, A)\n", "line 2:"},               // DFF arity
		{"INPUT(A)\n#@ delay G1 xyz\nG1 = NOT(A)\n", "line 2:"}, // bad delay number
	}
	for _, tc := range cases {
		if _, err := bench.ReadString(tc.src); err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%q: error %v, want one naming %s", tc.src, err, tc.line)
		}
	}
}

func TestClockNameCollision(t *testing.T) {
	src := `INPUT(CLK)
INPUT(D)
OUTPUT(Q)
Q = DFF(D)
`
	c, err := bench.ReadString(src)
	if err != nil {
		t.Fatal(err)
	}
	// The declared CLK input is reused as the implicit clock — no second
	// clock is synthesized, which keeps write/read round trips stable.
	clk, ok := c.ByName("CLK")
	if !ok {
		t.Fatal("no CLK input")
	}
	if _, ok := c.ByName("__CLK"); ok {
		t.Fatal("fallback clock synthesized despite declared CLK")
	}
	q, _ := c.ByName("Q")
	if c.FaninAdj.Row(q)[1] != clk {
		t.Fatal("DFF not wired to the declared CLK")
	}
	// Round trip preserves the gate population exactly.
	text, err := bench.WriteString(c, "")
	if err != nil {
		t.Fatal(err)
	}
	back, err := bench.ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Kinds) != len(c.Kinds) {
		t.Fatalf("round trip changed gate count %d -> %d", len(c.Kinds), len(back.Kinds))
	}
}

func TestWriteRejectsExoticOutputs(t *testing.T) {
	// An Output marker is required; hand-build a circuit whose output gate
	// list is fine, but verify unwritable kinds are reported: none exist
	// currently, so instead check the writer emits RESOLVE/TRI extensions.
	b := circuit.NewBuilder()
	a := b.Input("A")
	en := b.Input("EN")
	tr := b.Gate(circuit.Tri, "T1", en, a)
	rs := b.Gate(circuit.Resolve, "R1", tr)
	b.Output("Y", rs)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := bench.WriteString(c, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "T1 = TRI(EN, A)") || !strings.Contains(out, "R1 = RESOLVE(T1)") {
		t.Fatalf("extension ops missing:\n%s", out)
	}
	back, err := bench.ReadString(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Kinds) != len(c.Kinds) {
		t.Fatal("extension round trip changed gate count")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "# hello\n\n  \nINPUT(A)\n# mid\nOUTPUT(Y)\nY = BUFF(A)\n"
	if _, err := bench.ReadString(src); err != nil {
		t.Fatal(err)
	}
}
