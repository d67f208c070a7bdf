package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// testCircuit builds a mid-sized random DAG shared by the tests.
func testCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 600, Inputs: 16, Outputs: 10, Seed: 42, Locality: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var allMethods = []Method{
	MethodRandom, MethodContiguous, MethodStrings, MethodCones,
	MethodLevels, MethodKL, MethodFM, MethodAnneal, MethodMultilevel,
}

func TestAllMethodsProduceValidPartitions(t *testing.T) {
	c := testCircuit(t)
	for _, m := range allMethods {
		for _, k := range []int{1, 2, 3, 4, 8, 13} {
			opts := Options{Seed: 7, AnnealMoves: 5000}
			p, err := New(m, c, k, opts)
			if err != nil {
				t.Fatalf("%v k=%d: %v", m, k, err)
			}
			if err := p.Validate(c); err != nil {
				t.Fatalf("%v k=%d: %v", m, k, err)
			}
			// Every block of a small-k partition should be non-empty for a
			// 600-gate circuit.
			counts := make([]int, k)
			for _, b := range p.Assign {
				counts[b]++
			}
			for b, n := range counts {
				if n == 0 {
					t.Errorf("%v k=%d: block %d empty", m, k, b)
				}
			}
		}
	}
}

func TestMethodStringRoundTrip(t *testing.T) {
	for _, m := range allMethods {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got != m {
			t.Fatalf("ParseMethod(%q) = %v", m.String(), got)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("unknown method accepted")
	}
	if Method(99).String() != "Method(99)" {
		t.Fatal("unknown method string wrong")
	}
}

func TestNewArgumentValidation(t *testing.T) {
	c := testCircuit(t)
	if _, err := New(MethodRandom, c, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(MethodRandom, c, 2, Options{Weights: Weights{1, 2}}); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := New(Method(99), c, 2, Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestMinCutBeatsRandom(t *testing.T) {
	c := testCircuit(t)
	w := WeightsUniform(c)
	randCut := Random(c, 8, 1).CutLinks(c)
	for _, m := range []Method{MethodFM, MethodKL, MethodStrings, MethodCones, MethodContiguous, MethodMultilevel} {
		p, err := New(m, c, 8, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cut := p.CutLinks(c)
		if cut >= randCut {
			t.Errorf("%v cut %d not better than random %d", m, cut, randCut)
		}
		_ = w
	}
}

func TestFMImprovesInitialCut(t *testing.T) {
	c := testCircuit(t)
	w := WeightsUniform(c)
	fm := FM(c, 2, w, 3)
	rnd := Random(c, 2, 3)
	if fm.CutLinks(c) >= rnd.CutLinks(c) {
		t.Fatalf("FM cut %d >= random cut %d", fm.CutLinks(c), rnd.CutLinks(c))
	}
	// FM must stay reasonably balanced.
	if im := fm.Imbalance(w); im > 1.35 {
		t.Fatalf("FM imbalance %f", im)
	}
}

func TestKLBalanced(t *testing.T) {
	c := testCircuit(t)
	w := WeightsUniform(c)
	kl := KL(c, 4, w, 5)
	if im := kl.Imbalance(w); im > 1.6 {
		t.Fatalf("KL imbalance %f", im)
	}
}

func TestWeightedBalanceUsesWeights(t *testing.T) {
	c := testCircuit(t)
	// Skewed weights: first half of gates are 10x heavier.
	w := make(Weights, len(c.Kinds))
	for i := range w {
		if i < len(c.Kinds)/2 {
			w[i] = 10
		} else {
			w[i] = 1
		}
	}
	p := Contiguous(c, 4, w)
	if im := p.Imbalance(w); im > 1.5 {
		t.Fatalf("weighted contiguous imbalance %f", im)
	}
	// The same partition judged by the wrong (uniform) weights must look
	// worse-balanced, proving weights flowed into the cut points.
	uni := Contiguous(c, 4, WeightsUniform(c))
	if p.Imbalance(w) >= uni.Imbalance(w) {
		t.Fatalf("weight-aware partition (%f) not better than uniform (%f) under true weights",
			p.Imbalance(w), uni.Imbalance(w))
	}
}

func TestWeightsFromProfile(t *testing.T) {
	w := WeightsFromProfile([]uint64{0, 5, 100})
	if w[0] <= 0 {
		t.Fatal("zero-eval gate got non-positive weight")
	}
	if !(w[2] > w[1] && w[1] > w[0]) {
		t.Fatal("profile ordering lost")
	}
}

func TestPreSimulationImprovesLoadBalance(t *testing.T) {
	// Build a circuit with deliberately skewed activity: a hot multiplier
	// and a cold adder glued together.
	b := circuit.NewBuilder()
	var hotIn, coldIn []circuit.GateID
	for i := 0; i < 8; i++ {
		hotIn = append(hotIn, b.Input(nameN("h", i)))
	}
	for i := 0; i < 8; i++ {
		coldIn = append(coldIn, b.Input(nameN("c", i)))
	}
	prev := hotIn[0]
	for i := 0; i < 150; i++ {
		prev = b.Gate(circuit.Xor, nameN("hx", i), prev, hotIn[i%8])
	}
	b.Output("hot", prev)
	prevC := coldIn[0]
	for i := 0; i < 150; i++ {
		prevC = b.Gate(circuit.And, nameN("cx", i), prevC, coldIn[i%8])
	}
	b.Output("cold", prevC)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Stimulus toggles hot inputs every vector, cold inputs never.
	var chs []vectors.Change
	for _, in := range c.Inputs {
		chs = append(chs, vectors.Change{Time: 0, Input: in, Value: logic.Zero})
	}
	for k := 1; k <= 40; k++ {
		tck := circuit.Tick(k) * 200
		for i, in := range c.Inputs {
			if i < 8 { // hot inputs
				chs = append(chs, vectors.Change{Time: tck, Input: in, Value: logic.FromBool(k%2 == 1)})
			}
		}
	}
	stim := &vectors.Stimulus{Changes: chs, End: 40 * 200}
	stim.Sort()
	res, err := seq.Run(c, stim, seq.Horizon(c, stim), seq.Config{System: logic.TwoValued, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := WeightsFromProfile(res.EvalsByGate)

	uniform := FM(c, 2, WeightsUniform(c), 9)
	weighted := FM(c, 2, prof, 9)
	// Judged by true activity, the pre-simulation-weighted partition must
	// balance load better than the structural one.
	if weighted.Imbalance(prof) >= uniform.Imbalance(prof) {
		t.Fatalf("pre-simulation did not help: weighted %f vs uniform %f",
			weighted.Imbalance(prof), uniform.Imbalance(prof))
	}
}

func nameN(p string, i int) string {
	return p + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

// TestPartitionInvariantsQuick property-checks random partitions.
func TestPartitionInvariantsQuick(t *testing.T) {
	c := testCircuit(t)
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		p := Random(c, k, seed)
		if err := p.Validate(c); err != nil {
			return false
		}
		blocks := p.BlockGates()
		total := 0
		for _, bg := range blocks {
			total += len(bg)
		}
		if total != len(c.Kinds) {
			return false
		}
		// Cut of a 1-block partition is zero.
		if k == 1 && p.CutLinks(c) != 0 {
			return false
		}
		// Imbalance is always >= 1 (within floating error).
		return p.Imbalance(WeightsUniform(c)) >= 0.999
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	_ = reflect.TypeOf
}

func TestCutLinksManual(t *testing.T) {
	// a -> x, y; x -> y. Partition {a,x | y}: links a->y and x->y cross: 2.
	b := circuit.NewBuilder()
	a := b.Input("a")
	x := b.Gate(circuit.Not, "x", a)
	y := b.Gate(circuit.And, "y", a, x)
	b.Output("o", y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	o, _ := c.ByName("o")
	p := &Partition{Blocks: 2, Assign: make([]int, len(c.Kinds))}
	p.Assign[a], p.Assign[x], p.Assign[y], p.Assign[o] = 0, 0, 1, 1
	if cut := p.CutLinks(c); cut != 2 {
		t.Fatalf("cut = %d, want 2", cut)
	}
	// Duplicate consumers in one block count once.
	p.Assign[x] = 1
	// links: a->x(b1), a->y(b1) same block -> 1; x->y internal.
	if cut := p.CutLinks(c); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
}

func TestLevelsSpreadsLevelsAcrossBlocks(t *testing.T) {
	// A wide single-level circuit: every gate reads only inputs, so all
	// gates share one level and must be spread across the blocks.
	b := circuit.NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	for i := 0; i < 32; i++ {
		b.Gate(circuit.And, nameN("g", i), a, bb)
	}
	g0, _ := b.Build()
	p := Levels(g0, 4, WeightsUniform(g0))
	counts := make([]int, 4)
	for g := range g0.Kinds {
		if g0.Kinds[g] == circuit.And {
			counts[p.Assign[g]]++
		}
	}
	for b2, n := range counts {
		if n != 8 {
			t.Fatalf("block %d has %d of the level's gates, want 8", b2, n)
		}
	}
}

func TestAnnealRespectsMoveBudget(t *testing.T) {
	c := testCircuit(t)
	w := WeightsUniform(c)
	// A tiny budget must still return a valid partition.
	p := Anneal(c, 4, w, 1, 10)
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	// A large budget should improve on the contiguous starting point's cut
	// or at least not be catastrophically worse.
	big := Anneal(c, 4, w, 1, 80_000)
	start := Contiguous(c, 4, w)
	if big.CutLinks(c) > 2*start.CutLinks(c) {
		t.Fatalf("anneal cut %d blew up vs start %d", big.CutLinks(c), start.CutLinks(c))
	}
}

func TestSequentialCircuitPartitioning(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 300, Inputs: 8, Outputs: 4, Seed: 2, FFRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allMethods {
		p, err := New(m, c, 4, Options{Seed: 3, AnnealMoves: 3000})
		if err != nil {
			t.Fatalf("%v on sequential circuit: %v", m, err)
		}
		if err := p.Validate(c); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func BenchmarkFM8Way(b *testing.B) {
	c := testCircuit(b)
	w := WeightsUniform(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FM(c, 8, w, int64(i))
	}
}

func BenchmarkStrings8Way(b *testing.B) {
	c := testCircuit(b)
	w := WeightsUniform(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Strings(c, 8, w)
	}
}

func TestMultilevelCoarseningInvariants(t *testing.T) {
	c := testCircuit(t)
	verts := make([]circuit.GateID, len(c.Kinds))
	for i := range verts {
		verts[i] = circuit.GateID(i)
	}
	a := newArena(c)
	g := a.induce(c, verts, WeightsUniform(c))
	if !a.coarsen(g, rand.New(rand.NewSource(3))) {
		t.Fatal("no contraction on a connected graph")
	}
	cg := g.coarser
	if cg.cells() >= g.cells() {
		t.Fatalf("coarsening did not shrink: %d -> %d", g.cells(), cg.cells())
	}
	// Mapping is total and in range; coarse weights conserve total weight.
	var coarseTotal float64
	for _, cw := range cg.w {
		coarseTotal += cw
	}
	if diff := coarseTotal - g.total; diff > 1e-9 || diff < -1e-9 || cg.total != coarseTotal {
		t.Fatalf("weight not conserved: %f (total %f) vs %f", coarseTotal, cg.total, g.total)
	}
	seen := make([]bool, cg.cells())
	for v, cv := range g.coarse {
		if cv < 0 || int(cv) >= cg.cells() {
			t.Fatalf("vertex %d maps out of range: %d", v, cv)
		}
		seen[cv] = true
	}
	for cv, s := range seen {
		if !s {
			t.Fatalf("coarse vertex %d has no fine preimage", cv)
		}
	}
	// No singleton nets survive.
	for e := 0; e < cg.nets(); e++ {
		if cells := cg.pins(int32(e)); len(cells) < 2 {
			t.Fatalf("coarse net %d has %d cells", e, len(cells))
		}
	}
}

func TestMultilevelQualityComparableToFM(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 3000, Inputs: 48, Outputs: 24, Seed: 9, Locality: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	w := WeightsUniform(c)
	ml := Multilevel(c, 8, w, 4)
	fm := FM(c, 8, w, 4)
	mlCut, fmCut := ml.CutLinks(c), fm.CutLinks(c)
	t.Logf("cut: multilevel=%d fm=%d", mlCut, fmCut)
	// Multilevel must be in FM's league (allow 25% slack for seed noise)
	// and well balanced.
	if mlCut > fmCut+fmCut/4 {
		t.Fatalf("multilevel cut %d much worse than FM %d", mlCut, fmCut)
	}
	if im := ml.Imbalance(w); im > 1.4 {
		t.Fatalf("multilevel imbalance %f", im)
	}
}
