package opt

import "repro/internal/circuit"

// maxBalanceFanin caps the fanin width flattening may create; beyond this
// an n-ary fold evaluation itself becomes the bottleneck.
const maxBalanceFanin = 32

// passBalance flattens associative fanin trees to cut levelized depth: a
// same-family fold (And under And/Nand, Or under Or/Nor, Xor under
// Xor/Xnor) whose only reader is its parent is inlined into the parent's
// fanin list. The parent then computes the same settled value one level
// earlier.
//
// Unlike every DefaultPasses member, this pass is only cycle-accurate:
// the inlined subtree's propagation delay disappears from the path, so
// transient (glitch) timing changes even though every settled value — and
// therefore the oblivious engine's waveform, all sequential state at
// settled clock edges, and settled primary outputs — is preserved. It
// must be requested explicitly via Options.Passes.
func passBalance(w *work) bool {
	sole := w.soleReaders()
	changed := 0
	for i := range w.gates {
		g := &w.gates[i]
		var inner circuit.Kind
		switch g.Kind {
		case circuit.And, circuit.Nand:
			inner = circuit.And
		case circuit.Or, circuit.Nor:
			inner = circuit.Or
		case circuit.Xor, circuit.Xnor:
			inner = circuit.Xor
		default:
			continue
		}
		var out []circuit.GateID // nil until a child is inlined
		width := len(g.Fanin)
		for p, f := range g.Fanin {
			fg := &w.gates[f]
			if fg.Kind == inner && sole[f] == circuit.GateID(i) &&
				width+len(fg.Fanin)-1 <= maxBalanceFanin {
				if out == nil {
					out = append(make([]circuit.GateID, 0, len(g.Fanin)+len(fg.Fanin)-1), g.Fanin[:p]...)
				}
				out = append(out, fg.Fanin...)
				width += len(fg.Fanin) - 1
				changed++
			} else if out != nil {
				out = append(out, f)
			}
		}
		if out != nil {
			g.Fanin = out
		}
	}
	if changed == 0 {
		return false
	}
	w.stats.Flattened += changed
	return true
}
