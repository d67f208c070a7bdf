package opt

import (
	"slices"

	"repro/internal/circuit"
)

// work is the mutable pipeline representation: a copy of the gate array
// over one copy of the fanin pins, plus the evolving original<->current
// GateID bridge. Passes mutate gates in place and retire gates through
// compact, which applies a substitution, renumbers densely in place, and
// composes the remap.
type work struct {
	gates   []circuit.Gate
	inputs  []circuit.GateID
	outputs []circuit.GateID
	// fwd maps original IDs to current ones (-1 = eliminated); back maps
	// current IDs to the original gate they descend from.
	fwd   []circuit.GateID
	back  []circuit.GateID
	stats Stats

	// Scratch sized for the original netlist and reused by every pass
	// (the netlist only shrinks): identity's substitution and drop set,
	// compact's renumbering, soleReaders' answer, and passHash's table.
	repl  []circuit.GateID
	drop  []bool
	newID []circuit.GateID
	sole  []circuit.GateID
	hash  hashTable
}

func newWork(c *circuit.Circuit) *work {
	n := len(c.Kinds)
	w := &work{
		gates:   make([]circuit.Gate, n),
		inputs:  append([]circuit.GateID(nil), c.Inputs...),
		outputs: append([]circuit.GateID(nil), c.Outputs...),
		fwd:     make([]circuit.GateID, n),
		back:    make([]circuit.GateID, n),
		repl:    make([]circuit.GateID, n),
		drop:    make([]bool, n),
		newID:   make([]circuit.GateID, n),
		sole:    make([]circuit.GateID, n),
		hash:    hashTable{canon: make([]circuit.GateID, 0, len(c.FaninAdj.Idx))},
	}
	// Every gate's fanin is a capped row of one copy of the pins, so a
	// pass may rewrite a row in place but never append into the next.
	pins := append([]circuit.GateID(nil), c.FaninAdj.Idx...)
	off := c.FaninAdj.Off
	for i, k := range c.Kinds {
		g := circuit.Gate{Kind: k, Name: c.Name(circuit.GateID(i)), Delay: c.Delays[i]}
		if lo, hi := off[i], off[i+1]; lo < hi {
			g.Fanin = pins[lo:hi:hi]
		}
		w.gates[i] = g
		w.fwd[i] = circuit.GateID(i)
		w.back[i] = circuit.GateID(i)
	}
	return w
}

// Sole-reader answers: a net no gate reads, and a net two or more read.
const (
	noReader    circuit.GateID = -1
	manyReaders circuit.GateID = -2
)

// soleReaders returns, per net, the one gate reading it (however many of
// its pins do), noReader, or manyReaders. The slice is scratch: valid
// until the next call.
func (w *work) soleReaders() []circuit.GateID {
	sole := w.sole[:len(w.gates)]
	for i := range sole {
		sole[i] = noReader
	}
	for i := range w.gates {
		r := circuit.GateID(i)
		for _, f := range w.gates[i].Fanin {
			switch sole[f] {
			case noReader:
				sole[f] = r
			case r, manyReaders:
			default:
				sole[f] = manyReaders
			}
		}
	}
	return sole
}

// compact applies a substitution (repl, with repl[g] != g meaning "net g
// is now driven by net repl[g]") and a drop set, rewrites every surviving
// fanin, renumbers densely, and composes the remap. Every replaced gate
// must also be dropped, and no survivor may reference a gate that is
// dropped without a replacement. Survivors only move left, so the gate
// and back arrays are compacted in place.
func (w *work) compact(repl []circuit.GateID, drop []bool) {
	n := len(w.gates)
	res := func(g circuit.GateID) circuit.GateID {
		for repl[g] != g {
			g = repl[g]
		}
		return g
	}
	newID := w.newID[:n]
	id := circuit.GateID(0)
	for i := 0; i < n; i++ {
		if drop[i] {
			newID[i] = -1
			continue
		}
		newID[i] = id
		id++
	}
	for i := 0; i < n; i++ {
		if drop[i] {
			continue
		}
		g := w.gates[i]
		for p, f := range g.Fanin {
			g.Fanin[p] = newID[res(f)]
		}
		w.gates[newID[i]] = g
		w.back[newID[i]] = w.back[i]
	}
	w.gates, w.back = w.gates[:id], w.back[:id]
	for i, in := range w.inputs {
		w.inputs[i] = newID[res(in)]
	}
	for i, out := range w.outputs {
		w.outputs[i] = newID[res(out)]
	}
	for o := range w.fwd {
		if w.fwd[o] < 0 {
			continue
		}
		w.fwd[o] = newID[res(w.fwd[o])]
	}
}

// identity returns the scratch substitution and drop set, reset to "no
// change" over the current gates.
func (w *work) identity() ([]circuit.GateID, []bool) {
	n := len(w.gates)
	repl, drop := w.repl[:n], w.drop[:n]
	for i := range repl {
		repl[i] = circuit.GateID(i)
	}
	clear(drop)
	return repl, drop
}

// ---------------------------------------------------------------- constprop

// passConstProp folds Const0/Const1/ConstX drivers into their readers.
// Every rewrite keeps the reader's kind family and delay and only shrinks
// or redirects its fanin, so the reader's own event trajectory — initial
// evaluation at t=0 scheduling at t=Delay, then re-evaluations on input
// events with the projected-value filter — is preserved bit-exactly in
// all nine logic values. Rules that would change a net's pre-delay value
// (e.g. replacing Buf(Const0) by the constant itself, which is driven
// from t=0 instead of t=Delay) are deliberately absent.
func passConstProp(w *work) bool {
	changed := false
	for i := range w.gates {
		g := &w.gates[i]
		var c bool
		switch g.Kind {
		case circuit.And, circuit.Nand:
			c = w.foldDominated(g, circuit.Const0, circuit.Const1)
		case circuit.Or, circuit.Nor:
			c = w.foldDominated(g, circuit.Const1, circuit.Const0)
		case circuit.Xor, circuit.Xnor:
			c = w.foldXor(g)
		case circuit.Mux2:
			c = w.foldMux(g)
		case circuit.Tri:
			c = w.foldTri(g)
		}
		if c {
			w.stats.ConstFolds++
			changed = true
		}
	}
	return changed
}

// foldDominated handles the And/Nand and Or/Nor families: a dominating
// constant fanin (0 for and, 1 for or) forces the fold result for every
// input value — including U and the weak values — so the whole fanin
// shrinks to that one constant; identity constants (1 for and, 0 for or)
// drop out of the fold as long as at least one fanin remains.
func (w *work) foldDominated(g *circuit.Gate, dominating, identity circuit.Kind) bool {
	for _, f := range g.Fanin {
		if w.gates[f].Kind == dominating {
			if len(g.Fanin) == 1 {
				return false // already folded
			}
			g.Fanin = []circuit.GateID{f}
			return true
		}
	}
	if !w.readsKind(g, identity, identity) {
		return false
	}
	kept := g.Fanin[:0:0]
	var dropped circuit.GateID = -1
	for _, f := range g.Fanin {
		if w.gates[f].Kind == identity {
			dropped = f
			continue
		}
		kept = append(kept, f)
	}
	if dropped < 0 {
		return false
	}
	if len(kept) == 0 {
		kept = append(kept, dropped) // all-identity: keep one, fold is unchanged
		if len(g.Fanin) == 1 {
			return false
		}
	}
	g.Fanin = kept
	return true
}

// foldXor drops Const0 fanins from Xor/Xnor folds and removes Const1
// fanins by flipping the gate's polarity (Xor <-> Xnor) once per removal,
// which is exact because xor-with-One acts as a fixed involution on the
// fold accumulator for every logic value. At least one fanin is retained.
func (w *work) foldXor(g *circuit.Gate) bool {
	if !w.readsKind(g, circuit.Const0, circuit.Const1) {
		return false
	}
	kept := g.Fanin[:0:0]
	flips := 0
	var c0, c1 circuit.GateID = -1, -1
	for _, f := range g.Fanin {
		switch w.gates[f].Kind {
		case circuit.Const0:
			c0 = f
		case circuit.Const1:
			c1 = f
			flips++
		default:
			kept = append(kept, f)
		}
	}
	if c0 < 0 && c1 < 0 {
		return false
	}
	if len(kept) == 0 {
		// All-constant fold: retain one constant so arity stays >= 1. A
		// retained Const1 keeps contributing its flip inside the fold.
		if c0 >= 0 {
			kept = append(kept, c0)
		} else {
			kept = append(kept, c1)
			flips--
		}
		if len(g.Fanin) == 1 {
			return false
		}
	}
	g.Fanin = kept
	if flips%2 == 1 {
		if g.Kind == circuit.Xor {
			g.Kind = circuit.Xnor
		} else {
			g.Kind = circuit.Xor
		}
	}
	return true
}

// readsKind reports whether any of g's fanin is a gate of kind a or b; the
// folds check it before building a new fanin list.
func (w *work) readsKind(g *circuit.Gate, a, b circuit.Kind) bool {
	for _, f := range g.Fanin {
		if k := w.gates[f].Kind; k == a || k == b {
			return true
		}
	}
	return false
}

// foldMux reduces Mux2 to Buf when the select is a known constant (the
// mux output is exactly the selected data input's Buf in every case) or
// when both data pins read the same net (the pessimistic unknown-select
// agreement then always returns that net's Buf).
func (w *work) foldMux(g *circuit.Gate) bool {
	sel, d0, d1 := g.Fanin[0], g.Fanin[1], g.Fanin[2]
	switch w.gates[sel].Kind {
	case circuit.Const0:
		g.Kind, g.Fanin = circuit.Buf, []circuit.GateID{d0}
		return true
	case circuit.Const1:
		g.Kind, g.Fanin = circuit.Buf, []circuit.GateID{d1}
		return true
	}
	if d0 == d1 {
		g.Kind, g.Fanin = circuit.Buf, []circuit.GateID{d0}
		return true
	}
	return false
}

// foldTri reduces Tri by its enable: always-enabled is a plain Buf of the
// data pin; always-disabled drives Z regardless of data, so the data pin
// is dropped (Tri arity is exactly 2, so the enable is read twice);
// unknown-constant enable always drives X, the Buf of the ConstX net.
func (w *work) foldTri(g *circuit.Gate) bool {
	en, d := g.Fanin[0], g.Fanin[1]
	switch w.gates[en].Kind {
	case circuit.Const1:
		g.Kind, g.Fanin = circuit.Buf, []circuit.GateID{d}
		return true
	case circuit.Const0:
		if d == en {
			return false
		}
		g.Fanin = []circuit.GateID{en, en}
		return true
	case circuit.ConstX:
		g.Kind, g.Fanin = circuit.Buf, []circuit.GateID{en}
		return true
	}
	return false
}

// --------------------------------------------------------------------- hash

// commutativeKind reports the kinds whose fold is invariant under fanin
// permutation (verified exhaustively over value triples in the tests), so
// their hash key uses the sorted fanin multiset.
func commutativeKind(k circuit.Kind) bool {
	switch k {
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Xor, circuit.Xnor, circuit.Resolve:
		return true
	}
	return false
}

// hashTable is passHash's scratch: an open-addressing table of
// representative gates keyed by a 64-bit structural hash, and the
// representatives' canonical fanins in one flat array.
type hashTable struct {
	slots  []hashSlot
	canon  []circuit.GateID // canonical fanins, representatives' rows
	lo, hi []int32          // per representative, its row of canon
}

// hashSlot is one table entry: a representative (-1 = empty) and its
// hash, side by side so a probe touches one cache line.
type hashSlot struct {
	hash uint64
	gate circuit.GateID
}

// hashMix folds v into a running 64-bit hash.
func hashMix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// passHash merges structurally identical gates: same kind, same delay,
// and the same fanin (as a multiset for commutative folds, positionally
// otherwise). Identical gates compute identical event trajectories —
// including identical sequential state evolution for twin DFF/DLatch
// pairs — so redirecting readers to one representative is exact. Constant
// sources merge by kind alone (their nets carry the constant from t=0
// regardless of delay). Inputs and Output gates never merge. The
// representative is the first gate in ID order; a hash match is merged
// only after a full comparison of kind, delay and canonical fanin.
func passHash(w *work) bool {
	n := len(w.gates)
	t := &w.hash
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if len(t.slots) < size {
		t.slots = make([]hashSlot, size)
		t.lo, t.hi = make([]int32, n), make([]int32, n)
	}
	slots, mask := t.slots[:size], uint64(size-1)
	for i := range slots {
		slots[i].gate = -1
	}
	canon := t.canon[:0]
	repl, drop := w.identity()
	merged := 0
	for i := range w.gates {
		g := &w.gates[i]
		if g.Kind == circuit.Input || g.Kind == circuit.Output {
			continue
		}
		// The key: constants by kind alone, every other gate by kind,
		// delay and canonical fanin (sorted for commutative folds).
		lo := int32(len(canon))
		h := hashMix(0, uint64(g.Kind))
		var delay circuit.Tick
		if !g.Kind.Source() {
			delay = g.Delay
			canon = append(canon, g.Fanin...)
			if commutativeKind(g.Kind) {
				slices.Sort(canon[lo:])
			}
			h = hashMix(h, uint64(delay))
			for _, f := range canon[lo:] {
				h = hashMix(h, uint64(f))
			}
		}
		row := canon[lo:]
		s := h & mask
		rep := circuit.GateID(-1)
		for ; slots[s].gate >= 0; s = (s + 1) & mask {
			j := slots[s].gate
			if slots[s].hash == h && w.gates[j].Kind == g.Kind &&
				(g.Kind.Source() || w.gates[j].Delay == delay && slices.Equal(canon[t.lo[j]:t.hi[j]], row)) {
				rep = j
				break
			}
		}
		if rep < 0 {
			slots[s] = hashSlot{hash: h, gate: circuit.GateID(i)}
			t.lo[i], t.hi[i] = lo, int32(len(canon))
			continue
		}
		canon = canon[:lo]
		repl[i], drop[i] = rep, true
		merged++
	}
	t.canon = canon
	if merged == 0 {
		return false
	}
	w.stats.GatesHashed += merged
	w.compact(repl, drop)
	return true
}

// ----------------------------------------------------------------- bufclean

// absorbableDriver reports the kinds a sole-fanout buffer may be absorbed
// into by summing delays. Eligible drivers are the pure combinational
// folds whose output range is {U, X, 0, 1}: for those values the buffer's
// To01 projection only interchanges U and X, a difference every gate
// table preserves as-a-class and every To01 boundary (Output, DFF/DLatch
// sampling) collapses, so primary outputs and sequential state are
// bit-identical. Tri and Resolve drivers are excluded — they emit Z and
// weak values, which Buf projects to different strengths (Buf(Z)=X,
// Buf(L)=0) that a downstream Resolve would genuinely distinguish.
// Sequential drivers are excluded because their hold-current-value
// re-evaluations are only suppressed when the output delay is unchanged,
// and Output drivers because their nets are externally observed.
func absorbableDriver(k circuit.Kind) bool {
	switch k {
	case circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Mux2:
		return true
	}
	return false
}

// passBufClean folds a buffer that is its driver's only reader into the
// driver by summing delays. This is exact on every value system: under
// zero-boot (2-valued) the buffer's t=0 evaluation Buf(0)=0 is suppressed
// and steady transitions arrive at the same absolute times, and under
// U-boot the absorbed net maps to its driver identically up to the U/X
// class described on absorbableDriver.
func passBufClean(w *work) bool {
	changed := false
	sole := w.soleReaders()
	repl, drop := w.identity()
	touched := make([]bool, len(w.gates))
	absorbed := 0
	for i := range w.gates {
		g := &w.gates[i]
		if g.Kind != circuit.Buf || touched[i] {
			continue
		}
		x := g.Fanin[0]
		if touched[x] || !absorbableDriver(w.gates[x].Kind) || sole[x] != circuit.GateID(i) {
			continue
		}
		w.gates[x].Delay += g.Delay
		repl[i], drop[i] = x, true
		touched[i], touched[x] = true, true
		absorbed++
	}
	if absorbed > 0 {
		w.stats.BufsCleaned += absorbed
		w.compact(repl, drop)
		changed = true
	}
	return changed
}

// ------------------------------------------------------------------ invpair

// passInvPair collapses a Not(Not(x)) pair by rewriting the outer Not
// into a single-fanin And reading x with the summed delay — And with one
// input is the identity fold, which equals not-of-not on all nine values
// (both map U to U, whereas Buf would project U to X). Opt-in, not part
// of DefaultPasses: it is bit-exact only on the 4- and 9-valued systems.
// The 2-valued system boots every net at Zero, so the initial full-dirty
// sweep makes the inner inverter emit a real Not(0)=1 warm-up pulse that
// the collapsed form no longer produces; only settled behavior survives
// there (same caveat class as balance, see balance.go).
func passInvPair(w *work) bool {
	changed := false
	for i := range w.gates {
		g := &w.gates[i]
		if g.Kind != circuit.Not {
			continue
		}
		inner := &w.gates[g.Fanin[0]]
		if inner.Kind != circuit.Not {
			continue
		}
		g.Kind = circuit.And
		g.Fanin[0] = inner.Fanin[0]
		g.Delay += inner.Delay
		w.stats.InvPairs++
		changed = true
	}
	return changed
}

// ---------------------------------------------------------------------- dce

// passDCE drops every gate outside the backward support cone of the
// observation roots: primary inputs (so stimuli always resolve), Output
// gates and sequential elements. Removing a gate no root transitively
// reads cannot affect any observed trajectory.
func passDCE(w *work) bool {
	repl, drop := w.identity()
	stack := make([]circuit.GateID, 0, len(w.gates))
	for i := range w.gates {
		if k := w.gates[i].Kind; k == circuit.Input || k == circuit.Output || k.Sequential() {
			stack = append(stack, circuit.GateID(i))
		} else {
			drop[i] = true // dead until the search reaches it
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range w.gates[g].Fanin {
			if drop[f] {
				drop[f] = false
				stack = append(stack, f)
			}
		}
	}
	dead := 0
	for _, d := range drop {
		if d {
			dead++
		}
	}
	if dead == 0 {
		return false
	}
	w.stats.DeadRemoved += dead
	w.compact(repl, drop)
	return true
}
