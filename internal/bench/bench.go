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
// Signals may be referenced before they are defined; the reader fixes
// such references up once every signal is numbered.
//
// Two documented extensions keep round-trips lossless for circuits this
// repository builds natively: extra gate operators (BUF, MUX, TRI, RESOLVE,
// DLATCH, CONST0/CONST1/CONSTX) and per-gate delay annotations of the form
// "#@ delay <name> <ticks>".
package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// opByKind names the operator of each kind the format writes.
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

// kindByOp maps upper-case operators to kinds: opByKind inverted, and BUF
// for BUFF.
var kindByOp = func() map[string]circuit.Kind {
	m := map[string]circuit.Kind{"BUF": circuit.Buf}
	for k, op := range opByKind {
		m[op] = k
	}
	return m
}()

// Read parses a .bench netlist. The reader is read once, into one string,
// reserved at the file's size when r is a regular file.
func Read(r io.Reader) (*circuit.Circuit, error) {
	var sb strings.Builder
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			sb.Grow(int(fi.Size()))
		}
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return ReadString(sb.String())
}

// ReadString parses a .bench netlist held in a string. The circuit does
// not keep the text: its gate names are copied into one string of their
// own.
//
// One walk over the lines numbers the gates and fills the flat arrays,
// in storage reserved from a layout guessed from the text. A netlist the
// guess does not fit — one that declares an input after a definition,
// belies the clock guess or outgrows the reservation — is walked again,
// with the layout the first walk learned.
func ReadString(text string) (*circuit.Circuit, error) {
	p := parser{layout: guessLayout(text)}
	c, err := p.read(text)
	if err == errRelayout {
		p = parser{layout: p.learned()}
		c, err = p.read(text)
	}
	return c, err
}

// errRelayout reports a walk whose layout did not fit the netlist.
var errRelayout = errors.New("bench: netlist does not fit its layout")

// layout is what numbering a netlist needs before its first line: whether
// a CLK input is synthesized (it takes ID 0, ahead of the inputs), whether
// the inputs are numbered in a walk of their own (an INPUT line follows a
// definition), and the gates, pins and name bytes to reserve.
type layout struct {
	synthClk, lateInput    bool
	gates, pins, nameBytes int
}

// guessLayout bounds a netlist's layout with counts over its text: every
// gate's line (INPUT, OUTPUT or definition) holds a '(', every argument
// but a definition's last ends at a comma, and every sequential gate (an
// operator DFF or DLATCH after the '=') adds a clock pin. A definition's
// name is what precedes the first '=' on its line; a line without one is
// parsed if it holds a '(' and may be a declaration. The guess fits the
// upper-case form Write emits.
func guessLayout(text string) layout {
	l := layout{nameBytes: len(clkName)}
	seqOps := 0
	for rest := text; rest != ""; {
		var line string
		line, rest = cutLine(rest)
		if eq := strings.IndexByte(line, '='); eq >= 0 {
			l.nameBytes += len(trimBlanks(line[:eq]))
			if op := trimBlanks(line[eq+1:]); strings.HasPrefix(op, "DFF") || strings.HasPrefix(op, "DLATCH") {
				seqOps++
			}
		} else if strings.IndexByte(line, '(') >= 0 {
			switch s, _ := parseLine(strings.TrimSpace(line)); s.shape {
			case inputLine:
				l.nameBytes += len(s.name)
			case outputLine:
				l.nameBytes += len(s.name) + len(outputSuffix)
			}
		}
	}
	parens := strings.Count(text, "(")
	l.synthClk = seqOps > 0 && !strings.Contains(text, clkName)
	l.gates = parens + 1
	l.pins = strings.Count(text, ",") + parens + seqOps
	return l
}

// cutLine splits text's first line from the rest.
func cutLine(text string) (line, rest string) {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, ""
}

// trimBlanks trims ASCII blanks, all guessLayout needs: a name with
// another space around it is overestimated, not missed.
func trimBlanks(s string) string {
	for s != "" && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for s != "" && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// shape is what a line of a netlist is.
type shape uint8

const (
	skipLine   shape = iota // blank, a comment, or a directive of another shape
	delayLine               // "#@ delay <name> <ticks>"
	inputLine               // INPUT(name)
	outputLine              // OUTPUT(name)
	defLine                 // name = OP(args)
)

// stmt is one parsed line. Its strings are substrings of the line.
type stmt struct {
	shape shape
	name  string       // the declared, defined or retimed signal
	kind  circuit.Kind // definitions
	args  string       // definitions: the text between the parentheses
	delay circuit.Tick // delay directives
}

// parseLine parses one trimmed line.
func parseLine(line string) (stmt, error) {
	var s stmt
	var err error
	switch {
	case line == "":
	case strings.HasPrefix(line, "#@"):
		s, err = parseDirective(line[2:])
	case line[0] == '#':
	case isDecl(line, "INPUT"):
		s.shape = inputLine
		s.name, err = parseIODecl(line, "INPUT")
	case isDecl(line, "OUTPUT"):
		s.shape = outputLine
		s.name, err = parseIODecl(line, "OUTPUT")
	default:
		s, err = parseDef(line)
	}
	return s, err
}

// parseDirective parses a "#@ delay <name> <ticks>" extension. A
// directive of any other shape is a comment.
func parseDirective(s string) (stmt, error) {
	var f [3]string
	n := 0
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			break
		}
		if n == len(f) {
			return stmt{}, nil // more than three fields
		}
		end := strings.IndexFunc(s, unicode.IsSpace)
		if end < 0 {
			end = len(s)
		}
		f[n], s = s[:end], s[end:]
		n++
	}
	if n != 3 || f[0] != "delay" {
		return stmt{}, nil
	}
	d, err := strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return stmt{}, fmt.Errorf("bad delay: %v", err)
	}
	return stmt{shape: delayLine, name: f[1], delay: circuit.Tick(d)}, nil
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

// parseDef parses "name = OP(a, b, ...)".
func parseDef(line string) (stmt, error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return stmt{}, fmt.Errorf("expected gate definition, got %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return stmt{}, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op := strings.TrimSpace(rhs[:open])
	if name == "" || op == "" {
		return stmt{}, fmt.Errorf("malformed definition %q", line)
	}
	op = strings.ToUpper(op) // allocates only for an operator with lower case
	kind, ok := kindByOp[op]
	if !ok {
		return stmt{}, fmt.Errorf("unknown operator %q", op)
	}
	return stmt{shape: defLine, name: name, kind: kind, args: rhs[open+1 : len(rhs)-1]}, nil
}

// parser numbers one netlist's gates in a walk over its lines, in the
// reader's order: the implicit CLK when one is synthesized, then the
// inputs, the definitions and the OUTPUT markers, each in file order. A
// gate's ID is final when it is numbered; a pin naming a signal further
// down is fixed up once every signal is numbered.
type parser struct {
	layout
	kinds   []circuit.Kind
	delays  []circuit.Tick
	nameOff []int32
	off     []int32 // fanin offsets
	idx     []circuit.GateID
	ins     []circuit.GateID
	pool    strings.Builder // every name, back to back
	byName  map[string]circuit.GateID
	// fixups are the pins naming a signal not yet numbered, outs the
	// OUTPUT lines, and retimed the last delay a directive gave a signal
	// not yet numbered.
	fixups, outs []fixup
	retimed      map[string]circuit.Tick
	// What the walk learns for the layout.
	seqGates             int
	declaresClk, sawLate bool
}

// fixup is a signal named on a line before it was numbered: the fanin
// pin idx[pin], or an OUTPUT line.
type fixup struct {
	name      string
	pin, line int32
}

// read walks the text (inputs first under lateInput) into the storage
// the layout reserves, and hands the flat arrays and the name table to
// the circuit. It returns errRelayout, before resolving a fix-up, when
// the netlist does not fit the layout.
func (p *parser) read(text string) (*circuit.Circuit, error) {
	p.kinds = make([]circuit.Kind, 0, p.gates)
	p.delays = make([]circuit.Tick, 0, p.gates)
	p.nameOff = append(make([]int32, 0, p.gates+1), 0)
	p.off = make([]int32, 0, p.gates+1)
	p.idx = make([]circuit.GateID, 0, p.pins)
	p.byName = make(map[string]circuit.GateID, p.gates)
	// The pool does not grow in a walk that fits, so every name the
	// table holds is a substring of the string the circuit keeps.
	p.pool.Grow(p.nameBytes)
	if p.synthClk {
		p.ins = append(p.ins, p.declare(circuit.Input, clkName))
	}
	if p.lateInput {
		if err := p.walk(text, true); err != nil {
			return nil, err
		}
	}
	if err := p.walk(text, false); err != nil {
		return nil, err
	}
	if need := p.learned(); need.synthClk != p.synthClk || need.lateInput != p.lateInput ||
		need.gates > p.gates || need.pins > p.pins || need.nameBytes > p.nameBytes {
		return nil, errRelayout
	}
	for _, f := range p.fixups {
		src, ok := p.byName[f.name]
		if !ok {
			g := sort.Search(len(p.off), func(g int) bool { return p.off[g] > f.pin }) - 1
			return nil, fmt.Errorf("bench: line %d: %q references undefined signal %q", f.line, p.name(circuit.GateID(g)), f.name)
		}
		p.idx[f.pin] = src
	}
	// The OUTPUT markers read signals, never each other, so every source
	// is resolved before a marker joins the name table.
	outputs := make([]circuit.GateID, len(p.outs))
	for k, out := range p.outs {
		src, ok := p.byName[out.name]
		if !ok {
			return nil, fmt.Errorf("bench: line %d: OUTPUT(%s) references undefined signal", out.line, out.name)
		}
		outputs[k] = p.add(circuit.Output, out.name, outputSuffix)
		p.idx = append(p.idx, src)
	}
	for k, out := range p.outs {
		g := outputs[k]
		if prev, dup := p.byName[p.name(g)]; dup {
			return nil, fmt.Errorf("bench: line %d: OUTPUT(%s) marker %q duplicates gate %q",
				out.line, out.name, p.name(g), p.name(prev))
		}
		p.byName[p.name(g)] = g
	}
	p.off = append(p.off, int32(len(p.idx)))
	return circuit.FromFlat(p.kinds, p.delays, p.pool.String(), p.nameOff,
		circuit.Adj{Off: p.off, Idx: p.idx}, p.ins, outputs, p.byName)
}

// learned is the layout the walk found, the markers still to come
// counted in. The format has no clock pins, so sequential gates need an
// implicit clock: a signal named CLK in the netlist (an input or a defined
// gate) is reused — this is what keeps write/read round trips stable —
// and otherwise a CLK primary input is synthesized. Like a guess, the
// layout leaves room for one.
func (p *parser) learned() layout {
	l := layout{
		synthClk:  p.seqGates > 0 && !p.declaresClk,
		lateInput: p.lateInput || p.sawLate,
		gates:     len(p.kinds) + len(p.outs),
		pins:      len(p.idx) + len(p.outs),
		nameBytes: p.pool.Len(),
	}
	if !p.synthClk {
		l.gates++
		l.nameBytes += len(clkName)
	}
	for _, out := range p.outs {
		l.nameBytes += len(out.name) + len(outputSuffix)
	}
	return l
}

// walk steps through every line of text, trimmed, and stops at the first
// error, which it prefixes with the line's number.
func (p *parser) walk(text string, inputs bool) error {
	for no, rest := 1, text; rest != ""; no++ {
		var line string
		line, rest = cutLine(rest)
		if err := p.step(strings.TrimSpace(line), no, inputs); err != nil {
			return fmt.Errorf("bench: line %d: %v", no, err)
		}
	}
	return nil
}

// step numbers one line's gate. With inputs set it numbers only the INPUT
// lines; otherwise it numbers everything else, and the INPUT lines too
// unless they have a walk of their own.
func (p *parser) step(line string, no int, inputs bool) error {
	s, err := parseLine(line)
	if err != nil || (s.shape == inputLine) != inputs && (inputs || p.lateInput) {
		return err // a line numbered by the other walk is skipped
	}
	switch s.shape {
	case inputLine:
		p.sawLate = p.sawLate || len(p.kinds) != len(p.ins)
		g := p.declare(circuit.Input, s.name)
		if g < 0 {
			return fmt.Errorf("duplicate input %q", s.name)
		}
		p.ins = append(p.ins, g)
		p.declaresClk = p.declaresClk || s.name == clkName
	case outputLine:
		p.outs = append(p.outs, fixup{name: s.name, line: int32(no)})
	case delayLine:
		// A delay directive retimes a defined gate: the last one naming
		// it wins, and one naming anything else is ignored.
		if g, ok := p.byName[s.name]; !ok {
			if p.retimed == nil {
				p.retimed = make(map[string]circuit.Tick)
			}
			p.retimed[s.name] = s.delay
		} else if p.kinds[g] != circuit.Input {
			p.delays[g] = s.delay
		}
	case defLine:
		g := p.declare(s.kind, s.name)
		if g < 0 {
			return fmt.Errorf("duplicate definition of %q", s.name)
		}
		p.declaresClk = p.declaresClk || s.name == clkName
		if d, ok := p.retimed[s.name]; ok {
			p.delays[g] = d
		}
		lo := len(p.idx)
		for a := s.args; a != ""; {
			var arg string
			arg, a, _ = strings.Cut(a, ",")
			if arg = strings.TrimSpace(arg); arg != "" {
				p.pin(arg, no)
			}
		}
		if s.kind.Sequential() {
			if len(p.idx)-lo != 1 {
				return fmt.Errorf("%s takes one input", opByKind[s.kind])
			}
			p.seqGates++
			p.pin(clkName, no)
		}
	}
	return nil
}

// add numbers the next gate, a unit-delay one of the given kind named
// name+suffix, and returns its ID.
func (p *parser) add(kind circuit.Kind, name, suffix string) circuit.GateID {
	g := circuit.GateID(len(p.kinds))
	p.pool.WriteString(name)
	p.pool.WriteString(suffix)
	p.kinds = append(p.kinds, kind)
	p.delays = append(p.delays, 1)
	p.nameOff = append(p.nameOff, int32(p.pool.Len()))
	p.off = append(p.off, int32(len(p.idx)))
	return g
}

// declare numbers a signal and enters it in the name table. It returns
// -1 when the name is taken.
func (p *parser) declare(kind circuit.Kind, name string) circuit.GateID {
	g := p.add(kind, name, "")
	size := len(p.byName)
	if p.byName[p.name(g)] = g; len(p.byName) == size {
		return -1
	}
	return g
}

// name returns gate g's name, a substring of the pool.
func (p *parser) name(g circuit.GateID) string {
	return p.pool.String()[p.nameOff[g]:p.nameOff[g+1]]
}

// pin appends a fanin pin reading the signal named src, or a fix-up when
// src is not numbered yet.
func (p *parser) pin(src string, no int) {
	id, ok := p.byName[src]
	if !ok {
		p.fixups = append(p.fixups, fixup{name: src, pin: int32(len(p.idx)), line: int32(no)})
	}
	p.idx = append(p.idx, id)
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
