package circuit

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// kindArities lists every gate kind with the fanin widths to exercise.
var kindArities = []struct {
	kind    Kind
	arities []int
}{
	{Input, []int{0}},
	{Const0, []int{0}},
	{Const1, []int{0}},
	{ConstX, []int{0}},
	{Buf, []int{1}},
	{Output, []int{1}},
	{Not, []int{1}},
	{And, []int{1, 2, 3, 4}},
	{Nand, []int{1, 2, 3, 4}},
	{Or, []int{1, 2, 3, 4}},
	{Nor, []int{1, 2, 3, 4}},
	{Xor, []int{1, 2, 3, 4}},
	{Xnor, []int{1, 2, 3, 4}},
	{Mux2, []int{3}},
	{Tri, []int{2}},
	{Resolve, []int{1, 2, 3, 4}},
	{DFF, []int{2}},
	{DLatch, []int{2}},
}

func randWord(rng *rand.Rand) logic.Word {
	return logic.Word{L: rng.Uint64(), H: rng.Uint64()}
}

// TestEvaluateWideMatchesScalar drives EvaluateWide with random packed
// operands and checks that every lane equals the scalar Evaluate of that
// lane, for every kind and fanin arity. Any uint64 pair is a valid Word,
// so the random words cover the whole {X,0,1,Z} input space.
func TestEvaluateWideMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rounds = 64
	for _, ka := range kindArities {
		for _, n := range ka.arities {
			for r := 0; r < rounds; r++ {
				fanin := make([]logic.Word, n)
				for i := range fanin {
					fanin[i] = randWord(rng)
				}
				cur, prevClk := randWord(rng), randWord(rng)
				out, clkSample := EvaluateWide(ka.kind, fanin, cur, prevClk)
				sf := make([]logic.Value, n)
				for lane := 0; lane < logic.Lanes; lane++ {
					for i := range fanin {
						sf[i] = fanin[i].Get(lane)
					}
					wantOut, wantClk := Evaluate(ka.kind, sf, cur.Get(lane), prevClk.Get(lane))
					if got := out.Get(lane); got != wantOut.ToX01Z() {
						t.Fatalf("%v/%d lane %d: out %v, scalar %v (fanin %v cur %v prevClk %v)",
							ka.kind, n, lane, got, wantOut, sf, cur.Get(lane), prevClk.Get(lane))
					}
					if got := clkSample.Get(lane); got != wantClk.ToX01Z() {
						t.Fatalf("%v/%d lane %d: clkSample %v, scalar %v",
							ka.kind, n, lane, got, wantClk)
					}
				}
			}
		}
	}
}

// TestInitStateWideMatchesScalar pins the wide initial planes against the
// scalar ones, lane by lane, for both reduced systems.
func TestInitStateWideMatchesScalar(t *testing.T) {
	b := NewBuilder()
	in := b.Input("a")
	g := b.Gate(And, "g", in, b.Const("c1", logic.One))
	ff := b.Gate(DFF, "ff", g, in)
	b.Output("q", ff)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []logic.System{logic.TwoValued, logic.FourValued} {
		val, prevClk := InitState(c, sys)
		wval, wclk := InitStateWide(c, sys)
		for id := range c.Gates {
			for lane := 0; lane < logic.Lanes; lane += 17 {
				if got, want := wval[id].Get(lane), val[id].ToX01Z(); got != want {
					t.Errorf("%v: gate %d lane %d val %v, scalar %v", sys, id, lane, got, want)
				}
				if got, want := wclk[id].Get(lane), prevClk[id].ToX01Z(); got != want {
					t.Errorf("%v: gate %d lane %d prevClk %v, scalar %v", sys, id, lane, got, want)
				}
			}
		}
	}
}
