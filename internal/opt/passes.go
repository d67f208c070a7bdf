package opt

import (
	"slices"
	"strings"

	"repro/internal/circuit"
)

// work is the mutable pipeline representation, flat like the circuit:
// per gate a kind, a delay and a fanin row pins[lo[g]:hi[g]], plus the
// evolving original<->current GateID bridge. Passes rewrite rows in place
// (constant folds only shrink them; balance appends a widened row at the
// end of pins) and retire gates through compact, which applies a
// substitution, renumbers densely in place, and composes the remap. A
// gate's name never changes: survivor g is named like the original gate
// back[g], so names are copied once, into the result.
type work struct {
	kinds   []circuit.Kind
	delays  []circuit.Tick
	lo, hi  []int32
	pins    []circuit.GateID
	inputs  []circuit.GateID
	outputs []circuit.GateID
	// fwd maps original IDs to current ones (-1 = eliminated); back maps
	// current IDs to the original gate they descend from.
	fwd   []circuit.GateID
	back  []circuit.GateID
	stats Stats
	// live is set by passDCE and cleared by any rewrite that can leave a
	// gate outside every root's support cone: a fold that drops a pin,
	// invpair and balance. Merging twins and absorbing buffers keep every
	// survivor's drivers read, so they leave it set.
	live bool

	// Scratch sized for the original netlist and reused by every pass
	// (the netlist only shrinks): identity's substitution and drop set,
	// one array that is soleReaders' answer, passDCE's stack and
	// compact's renumbering in turn, and passHash's table.
	repl  []circuit.GateID
	drop  []bool
	spare []circuit.GateID
	hash  hashTable
}

func newWork(c *circuit.Circuit) *work {
	n := len(c.Kinds)
	w := &work{
		kinds:   slices.Clone(c.Kinds),
		delays:  slices.Clone(c.Delays),
		lo:      make([]int32, n),
		hi:      make([]int32, n),
		pins:    slices.Clone(c.FaninAdj.Idx),
		inputs:  slices.Clone(c.Inputs),
		outputs: slices.Clone(c.Outputs),
		fwd:     make([]circuit.GateID, n),
		back:    make([]circuit.GateID, n),
		repl:    make([]circuit.GateID, n),
		drop:    make([]bool, n),
		spare:   make([]circuit.GateID, n),
	}
	for i := range n {
		w.lo[i], w.hi[i] = c.FaninAdj.Off[i], c.FaninAdj.Off[i+1]
		w.fwd[i] = circuit.GateID(i)
		w.back[i] = circuit.GateID(i)
	}
	return w
}

// row returns gate g's fanin. It aliases pins: a pass may rewrite it in
// place, and a shrunk row is set with setRow.
func (w *work) row(g int) []circuit.GateID { return w.pins[w.lo[g]:w.hi[g]] }

// setRow shrinks gate g's row to its first n pins.
func (w *work) setRow(g, n int) { w.hi[g] = w.lo[g] + int32(n) }

// circuit hands the work's netlist to circuit.FromFlat, every array
// copied at its final size; c is the original circuit, which names the
// survivors.
func (w *work) circuit(c *circuit.Circuit) (*circuit.Circuit, error) {
	n := len(w.kinds)
	nameOff := make([]int32, n+1)
	off := make([]int32, n+1)
	for g, o := range w.back {
		nameOff[g+1] = nameOff[g] + int32(len(c.Name(o)))
		off[g+1] = off[g] + w.hi[g] - w.lo[g]
	}
	var names strings.Builder
	names.Grow(int(nameOff[n]))
	idx := make([]circuit.GateID, 0, off[n])
	for g, o := range w.back {
		names.WriteString(c.Name(o))
		idx = append(idx, w.row(g)...)
	}
	return circuit.FromFlat(slices.Clone(w.kinds), slices.Clone(w.delays), names.String(), nameOff,
		circuit.Adj{Off: off, Idx: idx}, w.inputs, w.outputs, nil)
}

// Sole-reader answers: a net no gate reads, and a net two or more read.
const (
	noReader    circuit.GateID = -1
	manyReaders circuit.GateID = -2
)

// soleReaders returns, per net, the one gate reading it (however many of
// its pins do), noReader, or manyReaders. The slice is scratch: valid
// until the next call or compact.
func (w *work) soleReaders() []circuit.GateID {
	sole := w.spare[:len(w.kinds)]
	for i := range sole {
		sole[i] = noReader
	}
	for i := range w.kinds {
		r := circuit.GateID(i)
		for _, f := range w.row(i) {
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
// dropped without a replacement. Survivors only move left, so every
// per-gate array is compacted in place; a dropped gate's pins are left
// unused.
func (w *work) compact(repl []circuit.GateID, drop []bool) {
	n := len(w.kinds)
	// to[g] is net g's new ID: a survivor's rank, then a replaced gate's
	// replacement's, -1 for a gate dropped without one.
	to := w.spare[:n]
	id := circuit.GateID(0)
	for i := range to {
		to[i] = -1
		if !drop[i] {
			to[i] = id
			id++
		}
	}
	for i, r := range repl {
		if r != circuit.GateID(i) {
			for repl[r] != r {
				r = repl[r]
			}
			to[i] = to[r]
		}
	}
	for i := 0; i < n; i++ {
		if drop[i] {
			continue
		}
		for p, f := range w.row(i) {
			w.pins[int(w.lo[i])+p] = to[f]
		}
		j := to[i]
		w.kinds[j], w.delays[j], w.lo[j], w.hi[j], w.back[j] = w.kinds[i], w.delays[i], w.lo[i], w.hi[i], w.back[i]
	}
	w.kinds, w.delays, w.lo, w.hi, w.back = w.kinds[:id], w.delays[:id], w.lo[:id], w.hi[:id], w.back[:id]
	for _, list := range [][]circuit.GateID{w.inputs, w.outputs} {
		for i, g := range list {
			list[i] = to[g]
		}
	}
	for o, g := range w.fwd {
		if g >= 0 {
			w.fwd[o] = to[g]
		}
	}
}

// identity returns the scratch substitution and drop set, reset to "no
// change" over the current gates.
func (w *work) identity() ([]circuit.GateID, []bool) {
	n := len(w.kinds)
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
	// Every rule folds a constant driver, and no pass makes one.
	if !slices.ContainsFunc(w.kinds, func(k circuit.Kind) bool { return k.Source() && k != circuit.Input }) {
		return false
	}
	changed := false
	for i, k := range w.kinds {
		var c bool
		switch k {
		case circuit.And, circuit.Nand:
			c = w.foldDominated(i, circuit.Const0, circuit.Const1)
		case circuit.Or, circuit.Nor:
			c = w.foldDominated(i, circuit.Const1, circuit.Const0)
		case circuit.Xor, circuit.Xnor:
			c = w.foldXor(i)
		case circuit.Mux2:
			c = w.foldMux(i)
		case circuit.Tri:
			c = w.foldTri(i)
		}
		if c {
			w.stats.ConstFolds++
			changed = true
		}
	}
	w.live = w.live && !changed
	return changed
}

// foldDominated handles the And/Nand and Or/Nor families: a dominating
// constant fanin (0 for and, 1 for or) forces the fold result for every
// input value — including U and the weak values — so the whole fanin
// shrinks to that one constant; identity constants (1 for and, 0 for or)
// drop out of the fold as long as at least one fanin remains.
func (w *work) foldDominated(g int, dominating, identity circuit.Kind) bool {
	row := w.row(g)
	for _, f := range row {
		if w.kinds[f] == dominating {
			if len(row) == 1 {
				return false // already folded
			}
			row[0] = f
			w.setRow(g, 1)
			return true
		}
	}
	if !w.readsKind(row, identity, identity) {
		return false
	}
	kept := 0
	for _, f := range row {
		if w.kinds[f] != identity {
			row[kept] = f
			kept++
		}
	}
	if kept == 0 {
		// All-identity: keep one, the last; the fold is unchanged.
		if len(row) == 1 {
			return false
		}
		row[0] = row[len(row)-1]
		kept = 1
	}
	w.setRow(g, kept)
	return true
}

// foldXor drops Const0 fanins from Xor/Xnor folds and removes Const1
// fanins by flipping the gate's polarity (Xor <-> Xnor) once per removal,
// which is exact because xor-with-One acts as a fixed involution on the
// fold accumulator for every logic value. At least one fanin is retained.
func (w *work) foldXor(g int) bool {
	row := w.row(g)
	if !w.readsKind(row, circuit.Const0, circuit.Const1) {
		return false
	}
	kept, flips := 0, 0
	var c0, c1 circuit.GateID = -1, -1
	for _, f := range row {
		switch w.kinds[f] {
		case circuit.Const0:
			c0 = f
		case circuit.Const1:
			c1 = f
			flips++
		default:
			row[kept] = f
			kept++
		}
	}
	if kept == 0 {
		// All-constant fold: retain one constant so arity stays >= 1. A
		// retained Const1 keeps contributing its flip inside the fold.
		if c0 >= 0 {
			row[0] = c0
		} else {
			row[0] = c1
			flips--
		}
		if len(row) == 1 {
			return false
		}
		kept = 1
	}
	w.setRow(g, kept)
	if flips%2 == 1 {
		if w.kinds[g] == circuit.Xor {
			w.kinds[g] = circuit.Xnor
		} else {
			w.kinds[g] = circuit.Xor
		}
	}
	return true
}

// readsKind reports whether any pin of row reads a gate of kind a or b;
// the folds check it before rewriting a row.
func (w *work) readsKind(row []circuit.GateID, a, b circuit.Kind) bool {
	for _, f := range row {
		if k := w.kinds[f]; k == a || k == b {
			return true
		}
	}
	return false
}

// foldMux reduces Mux2 to Buf when the select is a known constant (the
// mux output is exactly the selected data input's Buf in every case) or
// when both data pins read the same net (the pessimistic unknown-select
// agreement then always returns that net's Buf).
func (w *work) foldMux(g int) bool {
	row := w.row(g)
	sel, d0, d1 := row[0], row[1], row[2]
	switch {
	case w.kinds[sel] == circuit.Const1:
		row[0] = d1
	case w.kinds[sel] == circuit.Const0, d0 == d1:
		row[0] = d0
	default:
		return false
	}
	w.kinds[g] = circuit.Buf
	w.setRow(g, 1)
	return true
}

// foldTri reduces Tri by its enable: always-enabled is a plain Buf of the
// data pin; always-disabled drives Z regardless of data, so the data pin
// is dropped (Tri arity is exactly 2, so the enable is read twice);
// unknown-constant enable always drives X, the Buf of the ConstX net.
func (w *work) foldTri(g int) bool {
	row := w.row(g)
	en, d := row[0], row[1]
	switch w.kinds[en] {
	case circuit.Const1:
		row[0] = d
	case circuit.Const0:
		if d == en {
			return false
		}
		row[1] = en
		return true
	case circuit.ConstX:
	default:
		return false
	}
	w.kinds[g] = circuit.Buf
	w.setRow(g, 1)
	return true
}

// --------------------------------------------------------------------- hash

// commutativeKind reports the kinds whose fold is invariant under fanin
// permutation (verified exhaustively over value triples in the tests), so
// their key and comparison take the fanin as a multiset.
func commutativeKind(k circuit.Kind) bool {
	switch k {
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Xor, circuit.Xnor, circuit.Resolve:
		return true
	}
	return false
}

// hashTable is passHash's scratch: an open-addressing table of
// representative gates keyed by a structural hash, and two rows for
// comparing canonical fanins.
type hashTable struct {
	slots []hashSlot
	a, b  []circuit.GateID
}

// hashSlot is one table entry: a representative (-1 = empty) and the low
// half of its hash, side by side so a probe touches one cache line.
type hashSlot struct {
	hash uint32
	gate circuit.GateID
}

// hashMix folds v into a running 64-bit hash.
func hashMix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// key hashes gate g's kind, delay and fanin, the fanin as a multiset for
// a commutative fold (a sum of per-pin hashes, so no row is sorted) and
// positionally otherwise. A constant source is keyed by its kind alone.
func (w *work) key(g int) uint64 {
	k := w.kinds[g]
	h := hashMix(0, uint64(k))
	if k.Source() {
		return h
	}
	h = hashMix(h, uint64(w.delays[g]))
	if commutativeKind(k) {
		var sum uint64
		for _, f := range w.row(g) {
			sum += hashMix(0x51, uint64(f))
		}
		return hashMix(h, sum)
	}
	for _, f := range w.row(g) {
		h = hashMix(h, uint64(f))
	}
	return h
}

// twins reports whether gates g and r, of one kind, are structurally
// identical: constants by kind alone, every other gate by delay and
// fanin, compared sorted for a commutative fold.
func (w *work) twins(g, r int) bool {
	k := w.kinds[g]
	if k.Source() {
		return true
	}
	if w.delays[g] != w.delays[r] || w.hi[g]-w.lo[g] != w.hi[r]-w.lo[r] {
		return false
	}
	if !commutativeKind(k) {
		return slices.Equal(w.row(g), w.row(r))
	}
	t := &w.hash
	t.a = append(t.a[:0], w.row(g)...)
	t.b = append(t.b[:0], w.row(r)...)
	slices.Sort(t.a)
	slices.Sort(t.b)
	return slices.Equal(t.a, t.b)
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
	n := len(w.kinds)
	t := &w.hash
	size := 1
	for size < n+n/2 {
		size <<= 1
	}
	if len(t.slots) < size {
		t.slots = make([]hashSlot, size)
	}
	slots, mask := t.slots[:size], uint64(size-1)
	for i := range slots {
		slots[i].gate = -1
	}
	repl, drop := w.identity()
	merged := 0
	for i, k := range w.kinds {
		if k == circuit.Input || k == circuit.Output {
			continue
		}
		h := w.key(i)
		s := h & mask
		rep := circuit.GateID(-1)
		for ; slots[s].gate >= 0; s = (s + 1) & mask {
			j := slots[s].gate
			if slots[s].hash == uint32(h) && w.kinds[j] == k && w.twins(i, int(j)) {
				rep = j
				break
			}
		}
		if rep < 0 {
			slots[s] = hashSlot{hash: uint32(h), gate: circuit.GateID(i)}
			continue
		}
		repl[i], drop[i] = rep, true
		merged++
	}
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

// touched marks, in soleReaders' answer, a gate passBufClean has already
// absorbed into or out of: it is no sole reader of anything, and a buffer
// so marked is not absorbed again.
const touched circuit.GateID = -3

// passBufClean folds a buffer that is its driver's only reader into the
// driver by summing delays. This is exact on every value system: under
// zero-boot (2-valued) the buffer's t=0 evaluation Buf(0)=0 is suppressed
// and steady transitions arrive at the same absolute times, and under
// U-boot the absorbed net maps to its driver identically up to the U/X
// class described on absorbableDriver.
func passBufClean(w *work) bool {
	sole := w.soleReaders()
	repl, drop := w.identity()
	absorbed := 0
	for i, k := range w.kinds {
		if k != circuit.Buf || sole[i] == touched {
			continue
		}
		x := w.pins[w.lo[i]]
		if !absorbableDriver(w.kinds[x]) || sole[x] != circuit.GateID(i) {
			continue
		}
		w.delays[x] += w.delays[i]
		repl[i], drop[i] = x, true
		sole[i], sole[x] = touched, touched
		absorbed++
	}
	if absorbed == 0 {
		return false
	}
	w.stats.BufsCleaned += absorbed
	w.compact(repl, drop)
	return true
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
	for i, k := range w.kinds {
		if k != circuit.Not {
			continue
		}
		inner := w.pins[w.lo[i]]
		if w.kinds[inner] != circuit.Not {
			continue
		}
		w.kinds[i] = circuit.And
		w.pins[w.lo[i]] = w.pins[w.lo[inner]]
		w.delays[i] += w.delays[inner]
		w.stats.InvPairs++
		changed = true
	}
	w.live = w.live && !changed
	return changed
}

// ---------------------------------------------------------------------- dce

// passDCE drops every gate outside the backward support cone of the
// observation roots: primary inputs (so stimuli always resolve), Output
// gates and sequential elements. Removing a gate no root transitively
// reads cannot affect any observed trajectory.
func passDCE(w *work) bool {
	if w.live {
		return false
	}
	w.live = true
	repl, drop := w.identity()
	stack := w.spare[:0]
	for i, k := range w.kinds {
		if k == circuit.Input || k == circuit.Output || k.Sequential() {
			stack = append(stack, circuit.GateID(i))
		} else {
			drop[i] = true // dead until the search reaches it
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range w.row(int(g)) {
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
