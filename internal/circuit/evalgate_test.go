package circuit

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// oneGate builds `arity` inputs feeding a single gate of the given kind
// and returns the circuit, the gate and its fanin.
func oneGate(t *testing.T, kind Kind, arity int) (*Circuit, GateID, []GateID) {
	t.Helper()
	gates := make([]Gate, 0, arity+1)
	var ins, fanin []GateID
	for i := 0; i < arity; i++ {
		gates = append(gates, Gate{Kind: Input, Name: fmt.Sprintf("i%d", i), Delay: 1})
		ins = append(ins, GateID(i))
		fanin = append(fanin, GateID(i))
	}
	g := GateID(len(gates))
	gates = append(gates, Gate{Kind: kind, Name: "g", Fanin: fanin, Delay: 1})
	if kind == Input {
		ins = append(ins, g)
	}
	c, err := fromGates(gates, ins, nil, nil)
	if err != nil {
		t.Fatalf("%v/%d: %v", kind, arity, err)
	}
	return c, g, fanin
}

// TestEvalGateMatchesEvaluate checks the flat evaluator against the pure
// reference exhaustively: every kind, every fanin arity up to four, every
// combination of the nine values on the fanin, the gate's current output
// and its clock sample.
func TestEvalGateMatchesEvaluate(t *testing.T) {
	for _, ka := range kindArities {
		for _, arity := range ka.arities {
			c, g, fanin := oneGate(t, ka.kind, arity)
			val := make([]logic.Value, len(c.Kinds))
			prevClk := make([]logic.Value, len(c.Kinds))
			in := make([]logic.Value, arity)
			// Digits of n in base 9: fanin values, then cur, then prevClk.
			combos := 1
			for i := 0; i < arity+2; i++ {
				combos *= int(logic.NumValues)
			}
			for n := 0; n < combos; n++ {
				d := n
				for i := range in {
					in[i] = logic.Value(d % int(logic.NumValues))
					val[fanin[i]] = in[i]
					d /= int(logic.NumValues)
				}
				val[g] = logic.Value(d % int(logic.NumValues))
				prevClk[g] = logic.Value(d / int(logic.NumValues))
				wantOut, wantClk := Evaluate(ka.kind, in, val[g], prevClk[g])
				out, clk := EvalGate(c, g, val, val, prevClk)
				if out != wantOut || clk != wantClk {
					t.Fatalf("%v/%d in=%v cur=%v clk=%v: EvalGate=(%v,%v) Evaluate=(%v,%v)",
						ka.kind, arity, in, val[g], prevClk[g], out, clk, wantOut, wantClk)
				}
			}
		}
	}
}

// TestEvalGateWideMatchesEvaluateWide is the same check on the wide
// plane, 64 combinations per word: every combination of {X,0,1,Z} on the
// fanin, the current output and the clock sample.
func TestEvalGateWideMatchesEvaluateWide(t *testing.T) {
	four := [4]logic.Value{logic.X, logic.Zero, logic.One, logic.Z}
	for _, ka := range kindArities {
		for _, arity := range ka.arities {
			c, g, fanin := oneGate(t, ka.kind, arity)
			val := make([]logic.Word, len(c.Kinds))
			prevClk := make([]logic.Word, len(c.Kinds))
			in := make([]logic.Word, arity)
			combos := 1 << (2 * (arity + 2))
			for base := 0; base < combos; base += logic.Lanes {
				for i := range in {
					in[i] = logic.Word{}
				}
				val[g], prevClk[g] = logic.Word{}, logic.Word{}
				for lane := 0; lane < logic.Lanes; lane++ {
					d := base + lane
					for i := range in {
						in[i] = in[i].Set(lane, four[d&3])
						d >>= 2
					}
					val[g] = val[g].Set(lane, four[d&3])
					prevClk[g] = prevClk[g].Set(lane, four[d>>2&3])
				}
				for i, f := range fanin {
					val[f] = in[i]
				}
				wantOut, wantClk := EvaluateWide(ka.kind, in, val[g], prevClk[g])
				out, clk := EvalGateWide(c, g, val, val, prevClk)
				if out != wantOut || clk != wantClk {
					t.Fatalf("%v/%d base=%d: EvalGateWide=(%v,%v) EvaluateWide=(%v,%v)",
						ka.kind, arity, base, out, clk, wantOut, wantClk)
				}
			}
		}
	}
}
