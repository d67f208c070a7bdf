package bench_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
)

// FuzzRead checks the .bench reader never panics, that it accepts exactly
// what readReference accepts and builds the same gates in the same order,
// and that every accepted netlist survives a write/read round trip with
// the same gate count. The seed corpus covers the syntax variants and
// known edge cases; run with `go test -fuzz=FuzzRead ./internal/bench` to
// explore further.
func FuzzRead(f *testing.F) {
	seeds := []string{
		bench.C17,
		bench.S27,
		"",
		"# only a comment\n",
		"INPUT(A)\nOUTPUT(Y)\nY = BUFF(A)\n",
		"INPUT(A)\nOUTPUT(Y)\nY = DFF(A)\n",
		"INPUT(A)\nG = NOT(A)\n#@ delay G 9\n",
		"INPUT(A)\nY = MUX(A, A, A)\nOUTPUT(Y)\n",
		"INPUT(\xff)\nOUTPUT(Y)\nY = BUFF(\xff)\n",
		"INPUT(A)\nY = AND(A,,A)\nOUTPUT(Y)\n",
		"INPUT(A)\nY=NOT(A)\nOUTPUT(Y)\n",
		strings.Repeat("INPUT(A)\n", 3),
		"G1 = NOT(G2)\nG2 = NOT(G1)\n", // combinational cycle
		"INPUT(A)\n#@ delay A 99999999999999999999\n",
		"OUTPUT(A)\nINPUT(A)\n",
		"INPUT(a)\ninput_buf = BUFF(a)\nOUTPUT(input_buf)\n", // keyword-prefixed names
		"INPUT(a)\nOUTPUTEN = NOT(a)\nOUTPUT(OUTPUTEN)\n",
		"input (a)\nOutput\t(y)\ny = nand(a, a)\n",
		"INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n",                // duplicate marker
		"INPUT(a)\na$out = NOT(a)\nOUTPUT(a)\n",           // marker name taken
		"INPUT(a)\nOUTPUT(a)\nOUTPUT(a$out)\n",            // a marker is no signal
		"INPUT(a)\nq = DFF(a)\nCLK = NOT(a)\nOUTPUT(q)\n", // defined clock
		"INPUT(a)\ng = tr\u0131(a, a)\nOUTPUT(g)\n",       // Unicode upper-casing
		"INPUT(a)\ng = NOT(a)\n#@ delay g 3\n#@ delay g 5\n#@ delay a 7\n#@  delay\tg 2 x\n",
		"INPUT(a)\r\ng = NOT(a)\r\nOUTPUT(g)",
		// Netlists whose layout guess misses, read in a second walk.
		"INPUT(a)\ng = NOT(b)\nINPUT(b)\nOUTPUT(g)\n",                                 // an input after a definition
		"INPUT(a)\nq = dff(a)\nOUTPUT(q)\n",                                           // a lower-case flip-flop
		"INPUT(a)\nq = DFF(a)\ng = AND(q, CLK)\nOUTPUT(g)\n",                          // CLK named but synthesized
		"INPUT(a)\n# x = DFF(a)\ng = NOT(a)\nOUTPUT(g)\n",                             // a flip-flop in a comment
		"input(a)\noutput(g)\ng = NOT(a)\n#@ delay g 3\n",                             // lower-case declarations
		"INPUT(a)\ng = NOT(a)\nOUTPUT(g)\nOUTPUT(a)\n#@ delay g 2\n",                  // an output after a definition
		"#@ delay g 4\nINPUT(a)\n#@ delay g 5\ng = NOT(a)\n#@ delay a 2\nOUTPUT(g)\n", // retimed before its definition
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := bench.ReadString(src)
		ref, refErr := readReference(strings.NewReader(src))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read error %v, reference error %v\ninput: %q", err, refErr, src)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if a, b := structure(c), structure(ref); a != b {
			t.Fatalf("Read and the reference disagree:\nRead:\n%s\nreference:\n%s\ninput: %q", a, b, src)
		}
		text, err := bench.WriteString(c, "fuzz")
		if err != nil {
			// Writing can only fail for unwritable gate kinds, which the
			// reader cannot produce.
			t.Fatalf("accepted netlist failed to write: %v", err)
		}
		back, err := bench.ReadString(text)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, text)
		}
		if len(back.Kinds) != len(c.Kinds) {
			t.Fatalf("round trip changed gate count %d -> %d", len(c.Kinds), len(back.Kinds))
		}
	})
}

// structure renders a circuit's full structural identity — per-gate name,
// kind, delay, and fanin names, plus the input and output lists — in a
// form independent of gate IDs, for round-trip comparison.
func structure(c *circuit.Circuit) string {
	var sb strings.Builder
	name := func(id circuit.GateID) string { return c.Name(id) }
	for id := range c.Kinds {
		g := c.Gate(circuit.GateID(id))
		fmt.Fprintf(&sb, "%s|%v@%d", g.Name, g.Kind, g.Delay)
		for _, f := range g.Fanin {
			sb.WriteByte(',')
			sb.WriteString(name(f))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("in:")
	for _, in := range c.Inputs {
		sb.WriteByte(' ')
		sb.WriteString(name(in))
	}
	sb.WriteString("\nout:")
	for _, out := range c.Outputs {
		sb.WriteByte(' ')
		sb.WriteString(name(out))
	}
	return sb.String()
}

// FuzzBenchRoundTrip is the strong round-trip property: any netlist the
// reader accepts must write, re-read, and write again to a byte-identical
// fixed point, with every gate's name, kind, delay, and wiring preserved.
// (FuzzRead above is the weaker never-panic property over the same space.)
func FuzzBenchRoundTrip(f *testing.F) {
	seeds := []string{
		bench.C17,
		bench.S27,
		"INPUT(a)\nOUTPUT(y)\ny = NAND(a, a)\n",
		"INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n",
		"INPUT(CLK)\nINPUT(d)\nOUTPUT(q)\nq = DFF(d)\n",
		"INPUT(a)\nOUTPUT(y)\ny = NOT(fwd)\nfwd = BUFF(a)\n",
		"INPUT(a)\nOUTPUT(y)\nk = CONST1()\ny = AND(a, k)\n#@ delay y 7\n",
		"INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)\n",
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = XOR(a, b)\ny = DLATCH(x)\n#@ delay x 3\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := bench.ReadString(src)
		if err != nil {
			return // rejected input; nothing to round-trip
		}
		s1, err := bench.WriteString(c, "")
		if err != nil {
			t.Fatalf("accepted netlist not writable: %v\ninput: %q", err, src)
		}
		c2, err := bench.ReadString(s1)
		if err != nil {
			t.Fatalf("written netlist not readable: %v\nwritten:\n%s", err, s1)
		}
		s2, err := bench.WriteString(c2, "")
		if err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if s1 != s2 {
			t.Fatalf("write/read/write not a fixed point:\nfirst:\n%s\nsecond:\n%s", s1, s2)
		}
		if a, b := structure(c), structure(c2); a != b {
			t.Fatalf("structure changed across round trip:\nbefore:\n%s\nafter:\n%s", a, b)
		}
	})
}

// TestBenchRoundTripSeeds runs the strong round-trip property over the
// seed corpus directly, so plain `go test` exercises the contract too.
func TestBenchRoundTripSeeds(t *testing.T) {
	for _, src := range []string{bench.C17, bench.S27} {
		c, err := bench.ReadString(src)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := bench.WriteString(c, "")
		if err != nil {
			t.Fatal(err)
		}
		c2, err := bench.ReadString(s1)
		if err != nil {
			t.Fatalf("written form not readable: %v\n%s", err, s1)
		}
		if a, b := structure(c), structure(c2); a != b {
			t.Fatalf("structure changed:\nbefore:\n%s\nafter:\n%s", a, b)
		}
	}
}
