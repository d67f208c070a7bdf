// Package bench reads and writes ISCAS-style ".bench" netlists.
//
// The ISCAS-85 combinational and ISCAS-89 sequential benchmark circuits the
// paper discusses are distributed in this format:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G17)
//	G10 = NAND(G1, G3)
//	G23 = DFF(G10)
//
// The format has no clocks (ISCAS-89 assumes one implicit global clock), so
// the reader wires every DFF/DLATCH to a signal named CLK — reusing one
// the netlist declares, or synthesizing a primary input of that name.
// Signals may be referenced before they are defined; the reader resolves
// forward references in a second pass.
//
// Two documented extensions keep round-trips lossless for circuits this
// repository builds natively: extra gate operators (BUF, MUX, TRI, RESOLVE,
// DLATCH, CONST0/CONST1/CONSTX) and per-gate delay annotations of the form
// "#@ delay <name> <ticks>".
package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// outputSuffix distinguishes the synthetic Output marker gate's name from
// the signal it observes.
const outputSuffix = "$out"

// clkName is the synthesized clock input for DFF/DLATCH gates.
const clkName = "CLK"

// kindByOp maps .bench operators to gate kinds.
var kindByOp = map[string]circuit.Kind{
	"AND":     circuit.And,
	"NAND":    circuit.Nand,
	"OR":      circuit.Or,
	"NOR":     circuit.Nor,
	"XOR":     circuit.Xor,
	"XNOR":    circuit.Xnor,
	"NOT":     circuit.Not,
	"BUFF":    circuit.Buf,
	"BUF":     circuit.Buf,
	"DFF":     circuit.DFF,
	"DLATCH":  circuit.DLatch,
	"MUX":     circuit.Mux2,
	"TRI":     circuit.Tri,
	"RESOLVE": circuit.Resolve,
	"CONST0":  circuit.Const0,
	"CONST1":  circuit.Const1,
	"CONSTX":  circuit.ConstX,
}

// opByKind is the inverse mapping used by the writer.
var opByKind = map[circuit.Kind]string{
	circuit.And:     "AND",
	circuit.Nand:    "NAND",
	circuit.Or:      "OR",
	circuit.Nor:     "NOR",
	circuit.Xor:     "XOR",
	circuit.Xnor:    "XNOR",
	circuit.Not:     "NOT",
	circuit.Buf:     "BUFF",
	circuit.DFF:     "DFF",
	circuit.DLatch:  "DLATCH",
	circuit.Mux2:    "MUX",
	circuit.Tri:     "TRI",
	circuit.Resolve: "RESOLVE",
	circuit.Const0:  "CONST0",
	circuit.Const1:  "CONST1",
	circuit.ConstX:  "CONSTX",
}

// def is one parsed gate definition awaiting wiring.
type def struct {
	name string
	op   string // upper-cased
	args []string
	line int
}

// hasPrefixFold reports whether s begins with the upper-case ASCII keyword
// kw, in any letter case.
func hasPrefixFold(s, kw string) bool {
	return len(s) >= len(kw) && strings.EqualFold(s[:len(kw)], kw)
}

// Read parses a .bench netlist.
func Read(r io.Reader) (*circuit.Circuit, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)

	var inputs, outputs []string
	var defs []def
	delays := map[string]circuit.Tick{}
	lineNo := 0

	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#@") {
			// Extension directive.
			fields := strings.Fields(strings.TrimPrefix(line, "#@"))
			if len(fields) == 3 && fields[0] == "delay" {
				d, err := strconv.ParseUint(fields[2], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bench: line %d: bad delay: %v", lineNo, err)
				}
				delays[fields[1]] = circuit.Tick(d)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			name, err := parseIODecl(line, "INPUT")
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			inputs = append(inputs, name)
		case hasPrefixFold(line, "OUTPUT"):
			name, err := parseIODecl(line, "OUTPUT")
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			outputs = append(outputs, name)
		default:
			d, err := parseDef(line)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			d.line = lineNo
			defs = append(defs, d)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}

	b := circuit.NewBuilder()
	ids := make(map[string]circuit.GateID, lineNo+1) // a line defines at most one signal; +1 for CLK

	// The format has no clock pins, so sequential gates need an implicit
	// clock. A signal named CLK in the netlist (an input or a defined
	// gate) is reused — this is what keeps write/read round trips stable —
	// and otherwise a CLK primary input is synthesized.
	needsClk := false
	for _, d := range defs {
		if d.op == "DFF" || d.op == "DLATCH" {
			needsClk = true
		}
	}
	declaresClk := false
	for _, in := range inputs {
		if in == clkName {
			declaresClk = true
		}
	}
	for _, d := range defs {
		if d.name == clkName {
			declaresClk = true
		}
	}
	if needsClk && !declaresClk {
		ids[clkName] = b.Input(clkName)
	}
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("bench: duplicate input %q", in)
		}
		ids[in] = b.Input(in)
	}
	// First pass: declare every defined gate with empty fanin.
	for _, d := range defs {
		kind, ok := kindByOp[d.op]
		if !ok {
			return nil, fmt.Errorf("bench: line %d: unknown operator %q", d.line, d.op)
		}
		if _, dup := ids[d.name]; dup {
			return nil, fmt.Errorf("bench: line %d: duplicate definition of %q", d.line, d.name)
		}
		delay := circuit.Tick(1)
		if dd, ok := delays[d.name]; ok {
			delay = dd
		}
		ids[d.name] = b.GateDelay(kind, d.name, delay)
	}
	// Second pass: wire fanin, resolving forward references.
	for _, d := range defs {
		id := ids[d.name]
		fanin := make([]circuit.GateID, 0, len(d.args)+1)
		for _, a := range d.args {
			src, ok := ids[a]
			if !ok {
				return nil, fmt.Errorf("bench: line %d: %q references undefined signal %q", d.line, d.name, a)
			}
			fanin = append(fanin, src)
		}
		switch d.op {
		case "DFF", "DLATCH":
			if len(fanin) != 1 {
				return nil, fmt.Errorf("bench: line %d: %s takes one input", d.line, d.op)
			}
			fanin = append(fanin, ids[clkName])
		}
		b.SetFanin(id, fanin)
	}
	for _, out := range outputs {
		src, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references undefined signal", out)
		}
		b.Output(out+outputSuffix, src)
	}
	return b.Build()
}

// ReadString parses a .bench netlist held in a string.
func ReadString(s string) (*circuit.Circuit, error) {
	return Read(strings.NewReader(s))
}

// parseIODecl extracts the name from "INPUT(x)" / "OUTPUT(x)".
func parseIODecl(line, kw string) (string, error) {
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("malformed %s declaration %q", kw, line)
	}
	name := strings.TrimSpace(rest[1 : len(rest)-1])
	if name == "" {
		return "", fmt.Errorf("empty %s name", kw)
	}
	return name, nil
}

// parseDef parses "name = OP(a, b, ...)".
func parseDef(line string) (def, error) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return def{}, fmt.Errorf("expected gate definition, got %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.Index(rhs, "(")
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return def{}, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	argStr := rhs[open+1 : len(rhs)-1]
	var args []string
	for _, a := range strings.Split(argStr, ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			args = append(args, a)
		}
	}
	if name == "" || op == "" {
		return def{}, fmt.Errorf("malformed definition %q", line)
	}
	return def{name: name, op: op, args: args}, nil
}

// Write emits a circuit as a .bench netlist, including the delay extension
// for any gate whose delay differs from 1. Output marker gates are folded
// back into OUTPUT declarations; sequential gates are written without
// their clock pin (the reader reattaches the CLK signal), so write/read
// round trips preserve the gate population exactly.
func Write(w io.Writer, c *circuit.Circuit, title string) error {
	bw := bufio.NewWriter(w)
	if title != "" {
		fmt.Fprintf(bw, "# %s\n", title)
	}
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", len(c.Inputs), len(c.Outputs), c.NumGates())
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gate(in).Name)
	}
	for _, out := range c.Outputs {
		g := c.Gate(out)
		if g.Kind != circuit.Output || len(g.Fanin) != 1 {
			return fmt.Errorf("bench: output gate %q is not a simple marker", g.Name)
		}
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gate(g.Fanin[0]).Name)
	}
	var delayLines []string
	for id := range c.Gates {
		g := c.Gate(circuit.GateID(id))
		switch g.Kind {
		case circuit.Input, circuit.Output:
			continue
		}
		op, ok := opByKind[g.Kind]
		if !ok {
			return fmt.Errorf("bench: gate %q has unwritable kind %v", g.Name, g.Kind)
		}
		args := make([]string, 0, len(g.Fanin))
		fanin := g.Fanin
		if g.Kind == circuit.DFF || g.Kind == circuit.DLatch {
			fanin = fanin[:1] // the implicit clock is not written
		}
		for _, f := range fanin {
			args = append(args, c.Gate(f).Name)
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, op, strings.Join(args, ", "))
		if g.Delay != 1 {
			delayLines = append(delayLines, fmt.Sprintf("#@ delay %s %d", g.Name, g.Delay))
		}
	}
	sort.Strings(delayLines)
	for _, l := range delayLines {
		fmt.Fprintln(bw, l)
	}
	return bw.Flush()
}

// WriteString renders a circuit as a .bench netlist string.
func WriteString(c *circuit.Circuit, title string) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, c, title); err != nil {
		return "", err
	}
	return sb.String(), nil
}
