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
	for i, k := range w.kinds {
		var inner circuit.Kind
		switch k {
		case circuit.And, circuit.Nand:
			inner = circuit.And
		case circuit.Or, circuit.Nor:
			inner = circuit.Or
		case circuit.Xor, circuit.Xnor:
			inner = circuit.Xor
		default:
			continue
		}
		// A widened row is appended at the end of the pins, from the
		// first inlined child on.
		start := int32(-1)
		row := w.row(i)
		width := len(row)
		for p, f := range row {
			child := w.row(int(f))
			if w.kinds[f] == inner && sole[f] == circuit.GateID(i) &&
				width+len(child)-1 <= maxBalanceFanin {
				if start < 0 {
					start = int32(len(w.pins))
					w.pins = append(w.pins, row[:p]...)
				}
				w.pins = append(w.pins, child...)
				width += len(child) - 1
				changed++
			} else if start >= 0 {
				w.pins = append(w.pins, f)
			}
		}
		if start >= 0 {
			w.lo[i], w.hi[i] = start, int32(len(w.pins))
		}
	}
	if changed == 0 {
		return false
	}
	w.stats.Flattened += changed
	w.live = false
	return true
}
