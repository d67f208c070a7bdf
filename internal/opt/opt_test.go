package opt

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim/oblivious"
	"repro/internal/sim/seq"
	"repro/internal/trace"
	"repro/internal/vectors"
)

func allValues() []logic.Value {
	vs := make([]logic.Value, 0, int(logic.NumValues))
	for v := logic.Value(0); v < logic.NumValues; v++ {
		vs = append(vs, v)
	}
	return vs
}

func evalComb(t *testing.T, kind circuit.Kind, fanin ...logic.Value) logic.Value {
	t.Helper()
	out, _ := circuit.Evaluate(kind, fanin, logic.U, logic.U)
	return out
}

// TestNotNotEqualsSingleFaninAnd pins the identity behind double-inverter
// collapse: not(not(v)) equals the single-fanin And fold (and(One, v)) on
// every one of the nine values — and differs from Buf on U, which is why
// the collapse must NOT produce a Buf.
func TestNotNotEqualsSingleFaninAnd(t *testing.T) {
	for _, v := range allValues() {
		notNot := logic.Not(logic.Not(v))
		and1 := evalComb(t, circuit.And, v)
		if notNot != and1 {
			t.Errorf("not(not(%v)) = %v but And(%v) = %v", v, notNot, v, and1)
		}
	}
	if buf := evalComb(t, circuit.Buf, logic.U); buf == logic.Not(logic.Not(logic.U)) {
		t.Fatalf("Buf(U) unexpectedly equals not(not(U)); the collapse rule could use Buf")
	}
}

// TestFoldPermutationInvariance pins the structural-hashing assumption
// that the commutative kinds' folds are invariant under fanin permutation,
// exhaustively over all 9^3 value triples.
func TestFoldPermutationInvariance(t *testing.T) {
	kinds := []circuit.Kind{
		circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Xor, circuit.Xnor, circuit.Resolve,
	}
	vals := allValues()
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, k := range kinds {
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					in := [3]logic.Value{a, b, c}
					want := evalComb(t, k, a, b, c)
					for _, p := range perms[1:] {
						got := evalComb(t, k, in[p[0]], in[p[1]], in[p[2]])
						if got != want {
							t.Fatalf("%v(%v,%v,%v): permutation %v gives %v, want %v",
								k, a, b, c, p, got, want)
						}
					}
				}
			}
		}
	}
}

// TestConstPropRulesExhaustive verifies every constant-propagation rewrite
// at the evaluation level, for all combinations of the remaining fanin
// values: the rewritten gate must compute the identical output.
func TestConstPropRulesExhaustive(t *testing.T) {
	vals := allValues()
	for _, a := range vals {
		for _, b := range vals {
			// Dominating constants.
			for _, k := range []circuit.Kind{circuit.And, circuit.Nand} {
				if got, want := evalComb(t, k, a, logic.Zero, b), evalComb(t, k, logic.Zero); got != want {
					t.Fatalf("%v(%v,0,%v)=%v want %v", k, a, b, got, want)
				}
			}
			for _, k := range []circuit.Kind{circuit.Or, circuit.Nor} {
				if got, want := evalComb(t, k, a, logic.One, b), evalComb(t, k, logic.One); got != want {
					t.Fatalf("%v(%v,1,%v)=%v want %v", k, a, b, got, want)
				}
			}
			// Identity constants drop out.
			for _, k := range []circuit.Kind{circuit.And, circuit.Nand} {
				if got, want := evalComb(t, k, a, logic.One, b), evalComb(t, k, a, b); got != want {
					t.Fatalf("%v(%v,1,%v)=%v want %v", k, a, b, got, want)
				}
			}
			for _, k := range []circuit.Kind{circuit.Or, circuit.Nor} {
				if got, want := evalComb(t, k, a, logic.Zero, b), evalComb(t, k, a, b); got != want {
					t.Fatalf("%v(%v,0,%v)=%v want %v", k, a, b, got, want)
				}
			}
			for _, k := range []circuit.Kind{circuit.Xor, circuit.Xnor} {
				if got, want := evalComb(t, k, a, logic.Zero, b), evalComb(t, k, a, b); got != want {
					t.Fatalf("%v(%v,0,%v)=%v want %v", k, a, b, got, want)
				}
			}
			// Xor polarity flip: dropping a One toggles Xor <-> Xnor.
			if got, want := evalComb(t, circuit.Xor, a, logic.One, b), evalComb(t, circuit.Xnor, a, b); got != want {
				t.Fatalf("Xor(%v,1,%v)=%v want Xnor=%v", a, b, got, want)
			}
			if got, want := evalComb(t, circuit.Xnor, a, logic.One, b), evalComb(t, circuit.Xor, a, b); got != want {
				t.Fatalf("Xnor(%v,1,%v)=%v want Xor=%v", a, b, got, want)
			}
			// Mux with constant select is the selected pin's Buf; equal
			// data pins are that pin's Buf for ANY select value.
			if got, want := evalComb(t, circuit.Mux2, logic.Zero, a, b), evalComb(t, circuit.Buf, a); got != want {
				t.Fatalf("Mux2(0,%v,%v)=%v want Buf=%v", a, b, got, want)
			}
			if got, want := evalComb(t, circuit.Mux2, logic.One, a, b), evalComb(t, circuit.Buf, b); got != want {
				t.Fatalf("Mux2(1,%v,%v)=%v want Buf=%v", a, b, got, want)
			}
			if got, want := evalComb(t, circuit.Mux2, a, b, b), evalComb(t, circuit.Buf, b); got != want {
				t.Fatalf("Mux2(%v,%v,%v)=%v want Buf=%v", a, b, b, got, want)
			}
		}
		// Tri enables.
		if got, want := evalComb(t, circuit.Tri, logic.One, a), evalComb(t, circuit.Buf, a); got != want {
			t.Fatalf("Tri(1,%v)=%v want Buf=%v", a, got, want)
		}
		if got, want := evalComb(t, circuit.Tri, logic.Zero, a), evalComb(t, circuit.Tri, logic.Zero, logic.Zero); got != want {
			t.Fatalf("Tri(0,%v)=%v want %v", a, got, want)
		}
		if got, want := evalComb(t, circuit.Tri, logic.X, a), evalComb(t, circuit.Buf, logic.X); got != want {
			t.Fatalf("Tri(X,%v)=%v want %v", a, got, want)
		}
	}
}

// optFixture builds a small netlist exercising every pass: constants
// feeding and/or/xor/mux/tri, structural twins, buffer chains, a
// double-inverter pair, sequential state, and a dead cone.
func optFixture(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	a := b.Input("a")
	x := b.Input("x")
	clk := b.Input("clk")
	c0 := b.Const("c0", logic.Zero)
	c1 := b.Const("c1", logic.One)

	andDom := b.Gate(circuit.And, "and_dom", a, c0, x)    // collapses to And(c0)
	orId := b.Gate(circuit.Or, "or_id", a, c0, x)         // drops c0
	xorFlip := b.Gate(circuit.Xor, "xor_flip", a, c1)     // becomes Xnor(a)
	mux := b.Gate(circuit.Mux2, "mux_sel1", c1, a, x)     // becomes Buf(x)
	tri := b.Gate(circuit.Tri, "tri_en", c1, x)           // becomes Buf(x)
	twin1 := b.Gate(circuit.Nand, "twin1", a, x)          // hash-merges with twin2
	twin2 := b.Gate(circuit.Nand, "twin2", x, a)          // (commutative multiset key)
	reader := b.Gate(circuit.Xor, "reader", twin1, twin2) // becomes two-pin read
	inv1 := b.Gate(circuit.Not, "inv1", orId)             // double inverter
	inv2 := b.Gate(circuit.Not, "inv2", inv1)             // (collapses under invpair)
	buf1 := b.Gate(circuit.Buf, "buf1", xorFlip)          // absorbed into xorFlip
	buf2 := b.Gate(circuit.Buf, "buf2", buf1)             // then chain-absorbed
	ff := b.Gate(circuit.DFF, "ff", buf2, clk)            // keeps its cone alive
	deadA := b.Gate(circuit.And, "dead_a", a, x)          // dead cone:
	_ = b.Gate(circuit.Not, "dead_b", deadA)              // nothing reads it
	sum := b.Gate(circuit.Xor, "sum", andDom, mux, tri, reader, inv2, ff)
	b.Output("out", sum)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOptimizePipeline(t *testing.T) {
	c := optFixture(t)
	res, err := Optimize(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.GatesRemoved <= 0 || st.GatesAfter >= st.GatesBefore {
		t.Fatalf("no reduction: %+v", st)
	}
	if st.GatesHashed == 0 || st.ConstFolds == 0 || st.BufsCleaned == 0 || st.DeadRemoved == 0 {
		t.Fatalf("some pass did nothing: %+v", st)
	}
	if st.GatesBefore-st.GatesAfter != st.GatesRemoved {
		t.Fatalf("inconsistent removal accounting: %+v", st)
	}
	// Remap invariants: inputs and outputs survive; Fwd/Back compose to
	// the identity on surviving representatives.
	for _, in := range c.Inputs {
		ng, ok := res.Remap.Gate(in)
		if !ok {
			t.Fatalf("input %d eliminated", in)
		}
		if res.Circuit.Gates[ng].Name != c.Gates[in].Name {
			t.Fatalf("input %d name mismatch", in)
		}
	}
	for _, out := range c.Outputs {
		if _, ok := res.Remap.Gate(out); !ok {
			t.Fatalf("output %d eliminated", out)
		}
	}
	for ng, og := range res.Remap.Back {
		if fwd := res.Remap.Fwd[og]; fwd != circuit.GateID(ng) {
			t.Fatalf("Back[%d]=%d but Fwd[%d]=%d", ng, og, og, fwd)
		}
	}
	if _, ok := res.Circuit.ByName("dead_b"); ok {
		t.Fatal("dead gate survived")
	}

	// The merged twins leave the reader gate reading one net through two
	// pins — the shape the fanout/levelize layers must handle.
	reader, ok := c.ByName("reader")
	if !ok {
		t.Fatal("reader gate missing")
	}
	nr, ok := res.Remap.Gate(reader)
	if ok { // reader may itself fold further; if it survives, check pins
		fan := res.Circuit.Gates[nr].Fanin
		if len(fan) == 2 && fan[0] != fan[1] {
			t.Fatalf("twins not merged: reader fanin %v", fan)
		}
	}
	if _, err := res.Circuit.Levelize(); err != nil {
		t.Fatalf("optimized circuit does not levelize: %v", err)
	}
	checkWaveformEquivalent(t, c, res)
}

// checkWaveformEquivalent runs the original and optimized circuits under
// the same random stimulus on the sequential reference and requires
// bit-identical primary-output waveforms and final values.
func checkWaveformEquivalent(t *testing.T, c *circuit.Circuit, res *Result) {
	t.Helper()
	checkWaveformEquivalentOn(t, c, res, logic.TwoValued, logic.NineValued)
}

func checkWaveformEquivalentOn(t *testing.T, c *circuit.Circuit, res *Result, systems ...logic.System) {
	t.Helper()
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 24, Period: 16, Activity: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ostim, err := res.Remap.Stimulus(stim)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		ref, err := seq.Run(c, stim, until, seq.Config{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		got, err := seq.Run(res.Circuit, ostim, until, seq.Config{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		if d := trace.Diff(ref.Waveform, res.Remap.WaveformBack(got.Waveform), 5); d != "" {
			t.Fatalf("system %v: optimized waveform differs:\n%s", sys, d)
		}
		for _, po := range c.Outputs {
			np, _ := res.Remap.Gate(po)
			if ref.Values[po] != got.Values[np] {
				t.Fatalf("system %v: PO %d final %v vs %v", sys, po, ref.Values[po], got.Values[np])
			}
		}
	}
}

// TestOptimizeIndividualPasses runs each registered pass alone and
// requires waveform equivalence (balance is settled-only and excluded
// here; see TestBalanceSettledEquivalence).
func TestOptimizeIndividualPasses(t *testing.T) {
	c := optFixture(t)
	for _, pass := range DefaultPasses {
		pass := pass
		t.Run(pass, func(t *testing.T) {
			res, err := Optimize(c, Options{Passes: []string{pass}})
			if err != nil {
				t.Fatal(err)
			}
			checkWaveformEquivalent(t, c, res)
		})
	}
}

// TestInvPairEquivalence: double-inverter collapse is bit-exact on the
// 9-valued system (nets boot as U and Not(U)=U, so the removed inverter
// never fires at the t=0 sweep) but only settled-equivalent on the
// 2-valued system (zero boot makes the inner inverter's Not(0)=1 warm-up
// pulse observable) — exactly the contract documented on passInvPair.
func TestInvPairEquivalence(t *testing.T) {
	c := optFixture(t)
	res, err := Optimize(c, Options{Passes: []string{"invpair", "dce"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InvPairs == 0 {
		t.Fatalf("no inverter pair collapsed: %+v", res.Stats)
	}
	inv2, _ := c.ByName("inv2")
	ng, ok := res.Remap.Gate(inv2)
	if !ok {
		t.Fatal("collapsed pair's outer gate eliminated")
	}
	if g := res.Circuit.Gates[ng]; g.Kind != circuit.And || len(g.Fanin) != 1 {
		t.Fatalf("outer inverter rewrote to %v/%d fanin, want single-fanin And", g.Kind, len(g.Fanin))
	}
	checkWaveformEquivalentOn(t, c, res, logic.NineValued)

	// 2-valued: settled (oblivious) behavior still matches.
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 16, Period: 10, Activity: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ostim, err := res.Remap.Stimulus(stim)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oblivious.Run(c, stim, oblivious.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	got, err := oblivious.Run(res.Circuit, ostim, oblivious.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(ref.Waveform, res.Remap.WaveformBack(got.Waveform), 5); d != "" {
		t.Fatalf("invpair oblivious 2-valued waveform differs:\n%s", d)
	}
}

// TestBalanceSettledEquivalence checks the opt-in flattening pass on the
// oblivious (cycle-based) engine, whose waveform ignores transient timing
// — the equivalence class balance actually preserves.
func TestBalanceSettledEquivalence(t *testing.T) {
	b := circuit.NewBuilder()
	var ins []circuit.GateID
	for _, n := range []string{"i0", "i1", "i2", "i3", "i4", "i5"} {
		ins = append(ins, b.Input(n))
	}
	a1 := b.Gate(circuit.And, "a1", ins[0], ins[1])
	a2 := b.Gate(circuit.And, "a2", a1, ins[2])
	a3 := b.Gate(circuit.And, "a3", a2, ins[3])
	o1 := b.Gate(circuit.Or, "o1", ins[4], ins[5])
	x1 := b.Gate(circuit.Xor, "x1", a3, o1)
	b.Output("out", x1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(c, Options{Passes: []string{"balance", "dce"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flattened == 0 {
		t.Fatalf("balance flattened nothing: %+v", res.Stats)
	}
	if res.Stats.LevelsAfter >= res.Stats.LevelsBefore {
		t.Fatalf("no depth reduction: %+v", res.Stats)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 16, Period: 10, Activity: 0.8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ostim, err := res.Remap.Stimulus(stim)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oblivious.Run(c, stim, oblivious.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := oblivious.Run(res.Circuit, ostim, oblivious.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(ref.Waveform, res.Remap.WaveformBack(got.Waveform), 5); d != "" {
		t.Fatalf("balanced oblivious waveform differs:\n%s", d)
	}
}

// TestKeepPinsNet: a net on the Keep list survives even when dead, and
// its exact trajectory is preserved (it is never merged away).
func TestKeepPinsNet(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	x := b.Input("x")
	n1 := b.Gate(circuit.Nand, "n1", a, x)
	n2 := b.Gate(circuit.Nand, "n2", a, x) // structural twin of n1
	dead := b.Gate(circuit.Not, "dead", n2)
	b.Output("out", n1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = dead
	res, err := Optimize(c, Options{Keep: []circuit.GateID{n2}})
	if err != nil {
		t.Fatal(err)
	}
	ng, ok := res.Remap.Gate(n2)
	if !ok {
		t.Fatal("kept net eliminated")
	}
	if res.Circuit.Gates[ng].Name != "n2" {
		t.Fatalf("kept net merged away: maps to %q", res.Circuit.Gates[ng].Name)
	}
	// Without Keep, the twin merges and "dead" disappears.
	res2, err := Optimize(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.Circuit.ByName("dead"); ok {
		t.Fatal("dead cone survived default pipeline")
	}
	g1, _ := res2.Remap.Gate(n1)
	g2, ok := res2.Remap.Gate(n2)
	if !ok || g1 != g2 {
		t.Fatalf("twins not merged: %d vs %d", g1, g2)
	}
}

func TestParsePasses(t *testing.T) {
	if _, err := ParsePasses("constprop,nope"); err == nil {
		t.Fatal("unknown pass accepted")
	}
	ps, err := ParsePasses("hash,dce")
	if err != nil || len(ps) != 2 {
		t.Fatalf("ParsePasses: %v %v", ps, err)
	}
	if ps, err := ParsePasses(""); err != nil || ps != nil {
		t.Fatalf("empty spec: %v %v", ps, err)
	}
}
