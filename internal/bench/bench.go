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
	"unicode"

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

// Read parses a .bench netlist. The reader is read once, into one string.
func Read(r io.Reader) (*circuit.Circuit, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return ReadString(sb.String())
}

// ReadString parses a .bench netlist held in a string. The circuit does
// not keep the text: its gate names are copied into one string of their
// own.
func ReadString(text string) (*circuit.Circuit, error) {
	var p parser
	if err := p.scan(text); err != nil {
		return nil, err
	}
	return p.build()
}

// decl is a signal named on a line: an INPUT, an OUTPUT, or the target of
// a delay directive.
type decl struct {
	name  string
	line  int
	delay circuit.Tick // delay directives only
}

// def is one gate definition awaiting wiring; its arguments are
// args[lo:hi] of the parser's flat argument list.
type def struct {
	name   string
	kind   circuit.Kind
	lo, hi int32
	line   int
}

// parser holds one netlist's lines, parsed but not yet numbered. Every
// string in it is a substring of the text.
type parser struct {
	inputs, outputs, delays []decl
	defs                    []def
	args                    []string
	seqGates                int // DFF and DLATCH definitions
	declaresClk             bool
}

// scan splits text into lines and parses each, in file order.
func (p *parser) scan(text string) error {
	// Every definition holds one '=' and one argument more than its
	// commas, so these counts bound both lists.
	p.defs = make([]def, 0, strings.Count(text, "="))
	p.args = make([]string, 0, strings.Count(text, ",")+cap(p.defs))
	for lineNo, rest := 1, text; rest != ""; lineNo++ {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		line = strings.TrimSpace(line)
		var err error
		switch {
		case line == "":
		case strings.HasPrefix(line, "#@"):
			err = p.directive(line[2:], lineNo)
		case line[0] == '#':
		case isDecl(line, "INPUT"):
			var name string
			if name, err = parseIODecl(line, "INPUT"); err == nil {
				p.inputs = append(p.inputs, decl{name: name, line: lineNo})
				p.declaresClk = p.declaresClk || name == clkName
			}
		case isDecl(line, "OUTPUT"):
			var name string
			if name, err = parseIODecl(line, "OUTPUT"); err == nil {
				p.outputs = append(p.outputs, decl{name: name, line: lineNo})
			}
		default:
			err = p.parseDef(line, lineNo)
		}
		if err != nil {
			return fmt.Errorf("bench: line %d: %v", lineNo, err)
		}
	}
	return nil
}

// directive records a "#@ delay <name> <ticks>" extension. A directive of
// any other shape is a comment.
func (p *parser) directive(s string, lineNo int) error {
	var f [3]string
	n := 0
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			break
		}
		if n == len(f) {
			return nil // more than three fields
		}
		end := strings.IndexFunc(s, unicode.IsSpace)
		if end < 0 {
			end = len(s)
		}
		f[n], s = s[:end], s[end:]
		n++
	}
	if n != 3 || f[0] != "delay" {
		return nil
	}
	d, err := strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return fmt.Errorf("bad delay: %v", err)
	}
	p.delays = append(p.delays, decl{name: f[1], line: lineNo, delay: circuit.Tick(d)})
	return nil
}

// isDecl reports whether line declares an INPUT or OUTPUT: the upper-case
// keyword kw in any letter case, then optional blanks, then "(". A line
// defining a signal whose name begins with the keyword
// ("input_buf = BUFF(a)") is a definition.
func isDecl(line, kw string) bool {
	return len(line) >= len(kw) && strings.EqualFold(line[:len(kw)], kw) &&
		strings.HasPrefix(strings.TrimSpace(line[len(kw):]), "(")
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

// parseDef parses "name = OP(a, b, ...)", appending the arguments to the
// flat list.
func (p *parser) parseDef(line string, lineNo int) error {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("expected gate definition, got %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return fmt.Errorf("malformed gate expression %q", rhs)
	}
	op := strings.TrimSpace(rhs[:open])
	if name == "" || op == "" {
		return fmt.Errorf("malformed definition %q", line)
	}
	op = strings.ToUpper(op) // allocates only for an operator with lower case
	kind, ok := kindByOp[op]
	if !ok {
		return fmt.Errorf("unknown operator %q", op)
	}
	lo := int32(len(p.args))
	for a := rhs[open+1 : len(rhs)-1]; ; {
		arg := a
		comma := strings.IndexByte(a, ',')
		if comma >= 0 {
			arg, a = a[:comma], a[comma+1:]
		}
		if arg = strings.TrimSpace(arg); arg != "" {
			p.args = append(p.args, arg)
		}
		if comma < 0 {
			break
		}
	}
	p.defs = append(p.defs, def{name: name, kind: kind, lo: lo, hi: int32(len(p.args)), line: lineNo})
	if kind.Sequential() {
		p.seqGates++
	}
	p.declaresClk = p.declaresClk || name == clkName
	return nil
}

// build numbers the gates — the implicit CLK when one is synthesized,
// then the inputs, the definitions and the OUTPUT markers, each in file
// order — and hands the flat arrays and the name table to the circuit.
func (p *parser) build() (*circuit.Circuit, error) {
	// The format has no clock pins, so sequential gates need an implicit
	// clock. A signal named CLK in the netlist (an input or a defined
	// gate) is reused — this is what keeps write/read round trips stable —
	// and otherwise a CLK primary input is synthesized.
	synthClk := p.seqGates > 0 && !p.declaresClk
	n := len(p.inputs) + len(p.defs) + len(p.outputs)
	if synthClk {
		n++
	}
	kinds := make([]circuit.Kind, n)
	delays := make([]circuit.Tick, n)
	nameOff := make([]int32, n+1)
	byName := make(map[string]circuit.GateID, n)
	inputs := make([]circuit.GateID, 0, len(p.inputs)+1)
	// Every name, the $out markers' included, is written in gate order
	// into one string sized up front, which the circuit adopts with an
	// offset per gate: it keeps only the names' bytes and not the file's.
	size := len(clkName) + len(p.outputs)*len(outputSuffix)
	for _, list := range [][]decl{p.inputs, p.outputs} {
		for _, d := range list {
			size += len(d.name)
		}
	}
	for _, d := range p.defs {
		size += len(d.name)
	}
	var pool strings.Builder
	pool.Grow(size)
	id := circuit.GateID(0)
	// intern numbers the next gate, a unit-delay one of the given kind,
	// and returns its name as a substring of the pool.
	intern := func(kind circuit.Kind, name, suffix string) string {
		start := pool.Len()
		pool.WriteString(name)
		pool.WriteString(suffix)
		kinds[id], delays[id], nameOff[id+1] = kind, 1, int32(pool.Len())
		id++
		return pool.String()[start:]
	}
	declare := func(kind circuit.Kind, name string) {
		byName[intern(kind, name, "")] = id - 1
	}
	if synthClk {
		inputs = append(inputs, id)
		declare(circuit.Input, clkName)
	}
	for _, in := range p.inputs {
		if _, dup := byName[in.name]; dup {
			return nil, fmt.Errorf("bench: line %d: duplicate input %q", in.line, in.name)
		}
		inputs = append(inputs, id)
		declare(circuit.Input, in.name)
	}
	firstDef := id
	for _, d := range p.defs {
		if _, dup := byName[d.name]; dup {
			return nil, fmt.Errorf("bench: line %d: duplicate definition of %q", d.line, d.name)
		}
		declare(d.kind, d.name)
	}
	// A delay directive retimes a defined gate: the last one naming it
	// wins, and one naming anything else is ignored.
	for _, dd := range p.delays {
		if g, ok := byName[dd.name]; ok && g >= firstDef {
			delays[g] = dd.delay
		}
	}

	// Wire the fanin in gate order, resolving forward references. The
	// OUTPUT markers read signals, never each other, so every source is
	// resolved before a marker joins the name table.
	off := make([]int32, n+1)
	idx := make([]circuit.GateID, 0, len(p.args)+p.seqGates+len(p.outputs))
	clk := byName[clkName]
	for k, d := range p.defs {
		off[int(firstDef)+k] = int32(len(idx))
		for _, a := range p.args[d.lo:d.hi] {
			src, ok := byName[a]
			if !ok {
				return nil, fmt.Errorf("bench: line %d: %q references undefined signal %q", d.line, d.name, a)
			}
			idx = append(idx, src)
		}
		if d.kind.Sequential() {
			if d.hi-d.lo != 1 {
				return nil, fmt.Errorf("bench: line %d: %s takes one input", d.line, opByKind[d.kind])
			}
			idx = append(idx, clk)
		}
	}
	outputs := make([]circuit.GateID, len(p.outputs))
	for k, out := range p.outputs {
		src, ok := byName[out.name]
		if !ok {
			return nil, fmt.Errorf("bench: line %d: OUTPUT(%s) references undefined signal", out.line, out.name)
		}
		outputs[k] = id
		off[id] = int32(len(idx))
		idx = append(idx, src)
		intern(circuit.Output, out.name, outputSuffix)
	}
	off[n] = int32(len(idx))
	names := pool.String()
	name := func(g circuit.GateID) string { return names[nameOff[g]:nameOff[g+1]] }
	for k, out := range p.outputs {
		g := outputs[k]
		if prev, dup := byName[name(g)]; dup {
			return nil, fmt.Errorf("bench: line %d: OUTPUT(%s) marker %q duplicates gate %q",
				out.line, out.name, name(g), name(prev))
		}
		byName[name(g)] = g
	}
	return circuit.FromFlat(kinds, delays, names, nameOff, circuit.Adj{Off: off, Idx: idx}, inputs, outputs, byName)
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
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", len(c.Inputs), len(c.Outputs), len(c.Kinds))
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Name(in))
	}
	for _, out := range c.Outputs {
		fanin := c.FaninAdj.Row(out)
		if c.Kinds[out] != circuit.Output || len(fanin) != 1 {
			return fmt.Errorf("bench: output gate %q is not a simple marker", c.Name(out))
		}
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Name(fanin[0]))
	}
	var delayLines []string
	for id, kind := range c.Kinds {
		g := circuit.GateID(id)
		switch kind {
		case circuit.Input, circuit.Output:
			continue
		}
		op, ok := opByKind[kind]
		if !ok {
			return fmt.Errorf("bench: gate %q has unwritable kind %v", c.Name(g), kind)
		}
		fanin := c.FaninAdj.Row(g)
		if kind.Sequential() {
			fanin = fanin[:1] // the implicit clock is not written
		}
		args := make([]string, 0, len(fanin))
		for _, f := range fanin {
			args = append(args, c.Name(f))
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", c.Name(g), op, strings.Join(args, ", "))
		if d := c.Delays[g]; d != 1 {
			delayLines = append(delayLines, fmt.Sprintf("#@ delay %s %d", c.Name(g), d))
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
