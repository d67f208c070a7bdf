package circuit

import "repro/internal/logic"

// EvaluateWide is Evaluate on 64 packed lanes: each lane of the result is
// exactly Evaluate applied to that lane of the operands. The sequential
// kinds (DFF, DLatch) and the conditional kinds (Mux2, Tri) become
// lane-mask selects over the branch-free wide tables; everything else maps
// directly onto a wide table op.
//
// Like Evaluate it is pure, which the wide engines rely on for parallel
// evaluation and rollback re-execution.
func EvaluateWide(kind Kind, fanin []logic.Word, cur, prevClk logic.Word) (out, clkSample logic.Word) {
	switch kind {
	case Input:
		return cur, prevClk
	case Const0:
		return logic.Splat(logic.Zero), prevClk
	case Const1:
		return logic.Splat(logic.One), prevClk
	case ConstX:
		return logic.Splat(logic.X), prevClk
	case Buf, Output:
		return logic.WideBuf(fanin[0]), prevClk
	case Not:
		return logic.WideNot(fanin[0]), prevClk
	case And:
		return logic.WideAndN(fanin...), prevClk
	case Nand:
		return logic.WideNot(logic.WideAndN(fanin...)), prevClk
	case Or:
		return logic.WideOrN(fanin...), prevClk
	case Nor:
		return logic.WideNot(logic.WideOrN(fanin...)), prevClk
	case Xor:
		return logic.WideXorN(fanin...), prevClk
	case Xnor:
		return logic.WideNot(logic.WideXorN(fanin...)), prevClk
	case Mux2:
		return evalMuxWide(fanin[0], fanin[1], fanin[2]), prevClk
	case Tri:
		return evalTriWide(fanin[0], fanin[1]), prevClk
	case Resolve:
		return logic.WideResolveN(fanin...), prevClk
	case DFF:
		return evalDFFWide(fanin[0], fanin[1], cur, prevClk)
	case DLatch:
		return evalDLatchWide(fanin[0], fanin[1], cur), fanin[1]
	}
	return logic.Splat(logic.X), prevClk
}

// evalMuxWide is evalMux per lane: driven selects steer, undriven selects
// fall back to the pessimistic data-agreement refinement.
func evalMuxWide(sel, d0, d1 logic.Word) logic.Word {
	a, b := logic.WideBuf(d0), logic.WideBuf(d1)
	s0, s1 := sel.IsLow(), sel.IsHigh()
	// On the remaining (unknown/floating select) lanes: a if a==b and
	// driven, else X.
	agree0 := a.IsLow() & b.IsLow()
	agree1 := a.IsHigh() & b.IsHigh()
	amb := logic.Word{L: agree0 | ^(agree0 | agree1), H: agree1 | ^(agree0 | agree1)}
	out := logic.Select(s0, a, logic.Select(s1, b, amb))
	return out
}

// evalTriWide is evalTri per lane: enabled lanes re-drive data, disabled
// lanes float, unknown enables drive X.
func evalTriWide(en, d logic.Word) logic.Word {
	e0, e1 := en.IsLow(), en.IsHigh()
	ex := ^(e0 | e1)
	b := logic.WideBuf(d)
	return logic.Word{
		L: e1&b.L | ex,
		H: e1&b.H | ex,
	}
}

// evalDFFWide is evalDFF per lane: lanes with an unambiguous rising edge
// load D, lanes entering a high clock from an unknown sample degrade to X,
// all other lanes hold. The clock sample is the whole raw clock word.
func evalDFFWide(d, clk, cur, prevClk logic.Word) (out, clkSample logic.Word) {
	load := prevClk.IsLow() & clk.IsHigh()
	xload := clk.IsHigh() & ^prevClk.Known()
	b := logic.WideBuf(d)
	hold := ^(load | xload)
	out = logic.Word{
		L: load&b.L | xload | hold&cur.L,
		H: load&b.H | xload | hold&cur.H,
	}
	return out, clk
}

// evalDLatchWide is evalDLatch per lane: transparent lanes pass D, opaque
// lanes hold, unknown enables hold only where the held and incoming values
// agree on a driven level.
func evalDLatchWide(d, en, cur logic.Word) logic.Word {
	e0, e1 := en.IsLow(), en.IsHigh()
	ex := ^(e0 | e1)
	b := logic.WideBuf(d)
	agree := (b.IsLow() & cur.IsLow()) | (b.IsHigh() & cur.IsHigh())
	keep := e0 | ex&agree // hold lanes; remaining ex lanes go X
	x := ex &^ agree
	return logic.Word{
		L: e1&b.L | keep&cur.L | x,
		H: e1&b.H | keep&cur.H | x,
	}
}

// InitialWide returns the wide time-zero value of a gate kind under the
// given system: Splat of the projected scalar initial value.
func InitialWide(kind Kind, sys logic.System) logic.Word {
	return logic.Splat(sys.Project(InitialValue(kind)))
}

// InitStateWide allocates and initializes the wide value and clock-sample
// planes for a fresh wide simulation of c: every lane starts from the same
// projected initial value, exactly like InitState does for one lane.
func InitStateWide(c *Circuit, sys logic.System) (val, prevClk []logic.Word) {
	val = make([]logic.Word, len(c.Gates))
	prevClk = make([]logic.Word, len(c.Gates))
	clk0 := logic.Splat(sys.Project(logic.U))
	for id := range c.Gates {
		val[id] = InitialWide(c.Gates[id].Kind, sys)
		prevClk[id] = clk0
	}
	return val, prevClk
}

// EvalGateWide is EvalGate on the wide planes: EvaluateWide with kind and
// fanin read from the flat arrays and the n-ary kinds folded over val.
func EvalGateWide(c *Circuit, id GateID, val, prevClk []logic.Word) (out, clkSample logic.Word) {
	fin := c.FaninAdj.Row(id)
	kind, clk := c.Kinds[id], prevClk[id]
	switch kind {
	case Input:
		return val[id], clk
	case Const0:
		return logic.Splat(logic.Zero), clk
	case Const1:
		return logic.Splat(logic.One), clk
	case ConstX:
		return logic.Splat(logic.X), clk
	case Buf, Output:
		return logic.WideBuf(val[fin[0]]), clk
	case Not:
		return logic.WideNot(val[fin[0]]), clk
	case And, Nand:
		acc := logic.Splat(logic.One)
		for _, f := range fin {
			acc = logic.WideAnd(acc, val[f])
		}
		if kind == Nand {
			acc = logic.WideNot(acc)
		}
		return acc, clk
	case Or, Nor:
		acc := logic.Splat(logic.Zero)
		for _, f := range fin {
			acc = logic.WideOr(acc, val[f])
		}
		if kind == Nor {
			acc = logic.WideNot(acc)
		}
		return acc, clk
	case Xor, Xnor:
		acc := logic.Splat(logic.Zero)
		for _, f := range fin {
			acc = logic.WideXor(acc, val[f])
		}
		if kind == Xnor {
			acc = logic.WideNot(acc)
		}
		return acc, clk
	case Mux2:
		return evalMuxWide(val[fin[0]], val[fin[1]], val[fin[2]]), clk
	case Tri:
		return evalTriWide(val[fin[0]], val[fin[1]]), clk
	case Resolve:
		var acc logic.Word // all-Z, the identity of resolution
		for _, f := range fin {
			acc = logic.WideResolve(acc, val[f])
		}
		return acc, clk
	case DFF:
		return evalDFFWide(val[fin[0]], val[fin[1]], val[id], clk)
	case DLatch:
		en := val[fin[1]]
		return evalDLatchWide(val[fin[0]], en, val[id]), en
	}
	return logic.Splat(logic.X), clk
}
