package circuit

import "repro/internal/logic"

// Evaluate computes the new output value of a gate of the given kind.
//
// It is a pure function: fanin holds the current values of the gate's
// fanin nets (in declaration order), cur is the gate's current output, and
// prevClk is the clock/enable value sampled at the gate's previous
// evaluation (sequential kinds only). The second result is the new clock
// sample to store; combinational kinds return prevClk unchanged.
//
// Purity is load-bearing: Time Warp re-executes evaluations after rollback
// and the synchronous engine evaluates gates from multiple worker
// goroutines, both of which require that evaluation has no hidden state.
func Evaluate(kind Kind, fanin []logic.Value, cur, prevClk logic.Value) (out, clkSample logic.Value) {
	switch kind {
	case Input:
		// Inputs are externally driven; evaluation holds the driven value.
		return cur, prevClk
	case Const0:
		return logic.Zero, prevClk
	case Const1:
		return logic.One, prevClk
	case ConstX:
		return logic.X, prevClk
	case Buf, Output:
		return fanin[0].Buf(), prevClk
	case Not:
		return logic.Not(fanin[0]), prevClk
	case And:
		return logic.AndN(fanin...), prevClk
	case Nand:
		return logic.Not(logic.AndN(fanin...)), prevClk
	case Or:
		return logic.OrN(fanin...), prevClk
	case Nor:
		return logic.Not(logic.OrN(fanin...)), prevClk
	case Xor:
		return logic.XorN(fanin...), prevClk
	case Xnor:
		return logic.Not(logic.XorN(fanin...)), prevClk
	case Mux2:
		return evalMux(fanin[0], fanin[1], fanin[2]), prevClk
	case Tri:
		return evalTri(fanin[0], fanin[1]), prevClk
	case Resolve:
		return logic.ResolveN(fanin...), prevClk
	case DFF:
		return evalDFF(fanin[0], fanin[1], cur, prevClk)
	case DLatch:
		return evalDLatch(fanin[0], fanin[1], cur), fanin[1]
	}
	return logic.X, prevClk
}

// evalMux implements a 2:1 multiplexer with the standard pessimistic
// refinement: when the select is unknown but both data inputs agree on a
// driven value, that value is produced anyway.
func evalMux(sel, d0, d1 logic.Value) logic.Value {
	switch {
	case sel.IsLow():
		return d0.Buf()
	case sel.IsHigh():
		return d1.Buf()
	default:
		a, b := d0.Buf(), d1.Buf()
		if a == b && a != logic.X {
			return a
		}
		return logic.X
	}
}

// evalTri implements a tri-state driver: enabled it re-drives its data
// input, disabled it floats, and with an unknown enable it drives X.
func evalTri(en, d logic.Value) logic.Value {
	switch {
	case en.IsHigh():
		return d.Buf()
	case en.IsLow():
		return logic.Z
	default:
		return logic.X
	}
}

// evalDFF implements a rising-edge D flip-flop. An unambiguous rising edge
// loads D; an ambiguous transition into a high clock (the previous sample
// was not a driven level) pessimistically produces X, since an edge may or
// may not have occurred; anything else holds.
func evalDFF(d, clk, cur, prevClk logic.Value) (out, clkSample logic.Value) {
	switch {
	case logic.RisingEdge(prevClk, clk):
		return d.Buf(), clk
	case clk.IsHigh() && !prevClk.Known():
		return logic.X, clk
	default:
		return cur, clk
	}
}

// evalDLatch implements a transparent-high level-sensitive latch. While the
// enable is unknown the latch output degrades to X unless the held and
// incoming values agree.
func evalDLatch(d, en, cur logic.Value) logic.Value {
	switch {
	case en.IsHigh():
		return d.Buf()
	case en.IsLow():
		return cur
	default:
		if d.Buf() == cur && cur != logic.X {
			return cur
		}
		return logic.X
	}
}

// InitialValue returns the value every net of the given kind holds at time
// zero, before any evaluation, in the full 9-valued system. Engines running
// a reduced value system project this through logic.System.Project.
func InitialValue(kind Kind) logic.Value {
	switch kind {
	case Const0:
		return logic.Zero
	case Const1:
		return logic.One
	case ConstX:
		return logic.X
	default:
		return logic.U
	}
}

// InitState allocates and initializes the value and clock-sample vectors
// for a fresh simulation of c under the given value system.
func InitState(c *Circuit, sys logic.System) (val, prevClk []logic.Value) {
	val = make([]logic.Value, len(c.Gates))
	prevClk = make([]logic.Value, len(c.Gates))
	for id := range c.Gates {
		val[id] = sys.Project(InitialValue(c.Gates[id].Kind))
		prevClk[id] = sys.Project(logic.U)
	}
	return val, prevClk
}

// EvalGate evaluates gate id against the value planes: Evaluate with the
// gate's kind and fanin read straight from the circuit's flat arrays. The
// n-ary kinds fold over the fanin indices into val, so there is no fanin
// buffer to gather into; it is the form every engine's evaluation loop
// calls.
func EvalGate(c *Circuit, id GateID, val, prevClk []logic.Value) (out, clkSample logic.Value) {
	fin := c.FaninAdj.Row(id)
	kind, clk := c.Kinds[id], prevClk[id]
	switch kind {
	case Input:
		return val[id], clk
	case Const0:
		return logic.Zero, clk
	case Const1:
		return logic.One, clk
	case ConstX:
		return logic.X, clk
	case Buf, Output:
		return val[fin[0]].Buf(), clk
	case Not:
		return logic.Not(val[fin[0]]), clk
	case And, Nand:
		acc := logic.One
		for _, f := range fin {
			acc = logic.And(acc, val[f])
		}
		if kind == Nand {
			acc = logic.Not(acc)
		}
		return acc, clk
	case Or, Nor:
		acc := logic.Zero
		for _, f := range fin {
			acc = logic.Or(acc, val[f])
		}
		if kind == Nor {
			acc = logic.Not(acc)
		}
		return acc, clk
	case Xor, Xnor:
		acc := logic.Zero
		for _, f := range fin {
			acc = logic.Xor(acc, val[f])
		}
		if kind == Xnor {
			acc = logic.Not(acc)
		}
		return acc, clk
	case Mux2:
		return evalMux(val[fin[0]], val[fin[1]], val[fin[2]]), clk
	case Tri:
		return evalTri(val[fin[0]], val[fin[1]]), clk
	case Resolve:
		acc := logic.Z
		for _, f := range fin {
			acc = logic.Resolve(acc, val[f])
		}
		return acc, clk
	case DFF:
		return evalDFF(val[fin[0]], val[fin[1]], val[id], clk)
	case DLatch:
		en := val[fin[1]]
		return evalDLatch(val[fin[0]], en, val[id]), en
	}
	return logic.X, clk
}
