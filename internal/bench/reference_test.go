package bench_test

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// readReference is the line-scanning, Builder-based .bench reader that
// the flat reader replaced, kept verbatim apart from the declaration test
// (a line is INPUT/OUTPUT only when the keyword is followed by "("). The
// fuzz and round-trip tests hold Read to it: the same inputs accepted, the
// same gates in the same order with the same names, kinds, delays and
// wiring.
func readReference(r io.Reader) (*circuit.Circuit, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)

	var inputs, outputs []string
	var defs []refDef
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
		case refIsDecl(line, "INPUT"):
			name, err := refParseIODecl(line, "INPUT")
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			inputs = append(inputs, name)
		case refIsDecl(line, "OUTPUT"):
			name, err := refParseIODecl(line, "OUTPUT")
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			outputs = append(outputs, name)
		default:
			d, err := refParseDef(line)
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
		if in == "CLK" {
			declaresClk = true
		}
	}
	for _, d := range defs {
		if d.name == "CLK" {
			declaresClk = true
		}
	}
	if needsClk && !declaresClk {
		ids["CLK"] = b.Input("CLK")
	}
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("bench: duplicate input %q", in)
		}
		ids[in] = b.Input(in)
	}
	// First pass: declare every defined gate with empty fanin.
	for _, d := range defs {
		kind, ok := refKindByOp[d.op]
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
			fanin = append(fanin, ids["CLK"])
		}
		b.SetFanin(id, fanin)
	}
	for _, out := range outputs {
		src, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references undefined signal", out)
		}
		b.Output(out+"$out", src)
	}
	return b.Build()
}

// refDef is one parsed gate definition awaiting wiring.
type refDef struct {
	name string
	op   string // upper-cased
	args []string
	line int
}

var refKindByOp = map[string]circuit.Kind{
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

// refIsDecl reports whether line is an INPUT/OUTPUT declaration: the
// keyword kw in any letter case, then optional blanks, then "(".
func refIsDecl(line, kw string) bool {
	return len(line) >= len(kw) && strings.EqualFold(line[:len(kw)], kw) &&
		strings.HasPrefix(strings.TrimSpace(line[len(kw):]), "(")
}

// refParseIODecl extracts the name from "INPUT(x)" / "OUTPUT(x)".
func refParseIODecl(line, kw string) (string, error) {
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

// refParseDef parses "name = OP(a, b, ...)".
func refParseDef(line string) (refDef, error) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return refDef{}, fmt.Errorf("expected gate definition, got %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.Index(rhs, "(")
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return refDef{}, fmt.Errorf("malformed gate expression %q", rhs)
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
		return refDef{}, fmt.Errorf("malformed definition %q", line)
	}
	return refDef{name: name, op: op, args: args}, nil
}
