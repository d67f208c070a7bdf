package gen_test

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/simtest"
)

// addInputs builds the assignment for an adder.
func addInputs(bits int, a, b uint64, cin bool) map[string]logic.Value {
	m := map[string]logic.Value{"cin": logic.FromBool(cin)}
	simtest.BusAssign(m, "a", bits, a)
	simtest.BusAssign(m, "b", bits, b)
	return m
}

func testAdder(t *testing.T, name string, build func(int, gen.DelaySpec) (*circuit.Circuit, error), spec gen.DelaySpec) {
	t.Helper()
	const bits = 8
	c, err := build(bits, spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		a := rng.Uint64() & 0xFF
		b := rng.Uint64() & 0xFF
		cin := rng.Intn(2) == 1
		vals, err := simtest.Settle(c, addInputs(bits, a, b, cin))
		if err != nil {
			t.Fatalf("%s settle: %v", name, err)
		}
		sum, err := simtest.BusValue(c, vals, "s", bits)
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		coutID, _ := c.ByName("cout")
		coutBit, ok := vals[coutID].Bool()
		if !ok {
			t.Fatalf("%s: cout undriven", name)
		}
		want := a + b
		if cin {
			want++
		}
		got := sum
		if coutBit {
			got |= 1 << bits
		}
		if got != want {
			t.Fatalf("%s: %d + %d + %v = %d, want %d", name, a, b, cin, got, want)
		}
	}
}

func TestRippleAdderArithmetic(t *testing.T) {
	testAdder(t, "ripple-unit", gen.RippleAdder, gen.Unit)
	testAdder(t, "ripple-fine", gen.RippleAdder, gen.Fine(9, 3))
	testAdder(t, "ripple-bykind", gen.RippleAdder, gen.DelaySpec{Mode: gen.DelayByKind})
}

func TestCLAAdderArithmetic(t *testing.T) {
	testAdder(t, "cla-unit", gen.CLAAdder, gen.Unit)
	testAdder(t, "cla-fine", gen.CLAAdder, gen.Fine(6, 5))
}

func TestCLAAdderOddWidth(t *testing.T) {
	// Widths that are not multiples of the 4-bit block size.
	for _, bits := range []int{1, 3, 5, 7, 13} {
		c, err := gen.CLAAdder(bits, gen.Unit)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		mask := uint64(1)<<bits - 1
		vals, err := simtest.Settle(c, addInputs(bits, mask, 1, false))
		if err != nil {
			t.Fatalf("bits=%d settle: %v", bits, err)
		}
		sum, err := simtest.BusValue(c, vals, "s", bits)
		if err != nil {
			t.Fatal(err)
		}
		if sum != 0 {
			t.Fatalf("bits=%d: max+1 sum = %d, want 0 with carry", bits, sum)
		}
		coutID, _ := c.ByName("cout")
		if b, _ := vals[coutID].Bool(); !b {
			t.Fatalf("bits=%d: carry not set", bits)
		}
	}
}

func TestArrayMultiplierArithmetic(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 6} {
		c, err := gen.ArrayMultiplier(bits, gen.Unit)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		trials := 20
		if bits <= 2 {
			trials = 1 << (2 * bits) // exhaustive for tiny widths
		}
		for trial := 0; trial < trials; trial++ {
			var a, b uint64
			if bits <= 2 {
				a = uint64(trial) & (1<<bits - 1)
				b = uint64(trial) >> bits
			} else {
				a = rng.Uint64() & (1<<bits - 1)
				b = rng.Uint64() & (1<<bits - 1)
			}
			m := map[string]logic.Value{}
			simtest.BusAssign(m, "a", bits, a)
			simtest.BusAssign(m, "b", bits, b)
			vals, err := simtest.Settle(c, m)
			if err != nil {
				t.Fatalf("bits=%d settle: %v", bits, err)
			}
			p, err := simtest.BusValue(c, vals, "p", 2*bits)
			if err != nil {
				t.Fatalf("bits=%d decode: %v", bits, err)
			}
			if p != a*b {
				t.Fatalf("bits=%d: %d * %d = %d, want %d", bits, a, b, p, a*b)
			}
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := gen.RippleAdder(0, gen.Unit); err == nil {
		t.Error("RippleAdder(0) accepted")
	}
	if _, err := gen.CLAAdder(0, gen.Unit); err == nil {
		t.Error("CLAAdder(0) accepted")
	}
	if _, err := gen.ArrayMultiplier(0, gen.Unit); err == nil {
		t.Error("ArrayMultiplier(0) accepted")
	}
	if _, err := gen.LFSR(1, nil, gen.Unit); err == nil {
		t.Error("LFSR(1) accepted")
	}
	if _, err := gen.LFSR(4, []int{9}, gen.Unit); err == nil {
		t.Error("LFSR bad tap accepted")
	}
	if _, err := gen.Counter(0, gen.Unit); err == nil {
		t.Error("Counter(0) accepted")
	}
	if _, err := gen.ShiftRegister(0, gen.Unit); err == nil {
		t.Error("ShiftRegister(0) accepted")
	}
	if _, err := gen.RandomDAG(gen.RandomConfig{Gates: 0, Inputs: 1, Outputs: 1}); err == nil {
		t.Error("RandomDAG with 0 gates accepted")
	}
	if _, err := gen.RandomDAG(gen.RandomConfig{Gates: 5, Inputs: 1, Outputs: 1, MaxFanin: 1}); err == nil {
		t.Error("MaxFanin 1 accepted")
	}
	if _, err := gen.RandomDAG(gen.RandomConfig{Gates: 5, Inputs: 1, Outputs: 1, Locality: 2}); err == nil {
		t.Error("Locality 2 accepted")
	}
	if _, err := gen.RandomSeq(gen.RandomConfig{Gates: 5, Inputs: 1, Outputs: 1, FFRatio: -1}); err == nil {
		t.Error("FFRatio -1 accepted")
	}
}

func TestRandomDAGStructure(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := gen.RandomConfig{
			Gates: 200, Inputs: 10, Outputs: 5, Seed: seed,
			Locality: float64(seed) / 8,
		}
		c, err := gen.RandomDAG(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(c.Inputs) != cfg.Inputs || len(c.Outputs) != cfg.Outputs {
			t.Fatalf("seed %d: io = %d/%d", seed, len(c.Inputs), len(c.Outputs))
		}
		st := c.ComputeStats()
		if st.FlipFlops != 0 {
			t.Fatalf("seed %d: DAG contains flip-flops", seed)
		}
		if st.Gates < cfg.Gates {
			t.Fatalf("seed %d: only %d gates", seed, st.Gates)
		}
		if err := c.CheckEventDriven(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomSeqStructure(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 400, Inputs: 8, Outputs: 4, Seed: 11, FFRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	st := c.ComputeStats()
	if st.FlipFlops == 0 {
		t.Fatal("RandomSeq produced no flip-flops")
	}
	if _, ok := c.ByName("clk"); !ok {
		t.Fatal("RandomSeq has no clk input")
	}
	// Every DFF's clock pin must be the clk input.
	clk, _ := c.ByName("clk")
	for id, k := range c.Kinds {
		g := circuit.GateID(id)
		if fin := c.FaninAdj.Row(g); k == circuit.DFF && fin[1] != clk {
			t.Fatalf("DFF %q clocked by %d, not clk", c.Name(g), fin[1])
		}
	}
}

func TestRandomDAGDeterminism(t *testing.T) {
	cfg := gen.RandomConfig{Gates: 100, Inputs: 6, Outputs: 4, Seed: 77}
	c1, err := gen.RandomDAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := gen.RandomDAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Kinds) != len(c2.Kinds) {
		t.Fatal("same seed produced different circuits")
	}
	for i := range c1.Kinds {
		g := circuit.GateID(i)
		if c1.Kinds[g] != c2.Kinds[g] || c1.Name(g) != c2.Name(g) || c1.Delays[g] != c2.Delays[g] ||
			len(c1.FaninAdj.Row(g)) != len(c2.FaninAdj.Row(g)) {
			t.Fatalf("gate %d differs between identical seeds", i)
		}
	}
}

func TestDelaySpecs(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 150, Inputs: 6, Outputs: 3, Seed: 5, Delays: gen.Fine(12, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxDelay() < 2 {
		t.Fatal("fine delays produced no delay > 1")
	}
	if c.MinDelay() < 1 {
		t.Fatal("fine delays produced zero delay")
	}
	cu, err := gen.RandomDAG(gen.RandomConfig{Gates: 150, Inputs: 6, Outputs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cu.MaxDelay() != 1 {
		t.Fatal("unit delays produced delay > 1")
	}
}

func TestCounterCounts(t *testing.T) {
	// Drive 10 clock cycles with enable high and check the counter reads 10.
	c, err := gen.Counter(5, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	// Settle-based approach does not toggle clocks, so simulate via the
	// corpus path instead: handled in the seq engine tests.
	_ = c
}

func TestShiftRegisterStructure(t *testing.T) {
	c, err := gen.ShiftRegister(10, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	st := c.ComputeStats()
	if st.FlipFlops != 10 {
		t.Fatalf("ShiftRegister(10) has %d FFs", st.FlipFlops)
	}
}

func TestStandardCorpusBuilds(t *testing.T) {
	corpus, err := simtest.StandardCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 8 {
		t.Fatalf("corpus too small: %d", len(corpus))
	}
	for _, cs := range corpus {
		if err := cs.Stim.Validate(cs.C); err != nil {
			t.Errorf("%s: %v", cs.Name, err)
		}
		if err := cs.C.CheckEventDriven(); err != nil {
			t.Errorf("%s: %v", cs.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	cases := []struct {
		name  string
		gates int // minimum expected gate count
	}{
		{"c17", 10}, {"s27", 15}, {"mul4", 50}, {"ripple8", 40},
		{"cla8", 60}, {"lfsr8", 20}, {"counter4", 10}, {"shift16", 16},
		{"dag300", 300}, {"seq200", 200},
	}
	for _, cs := range cases {
		c, err := gen.ByName(cs.name, gen.Unit, 1)
		if err != nil {
			t.Fatalf("%s: %v", cs.name, err)
		}
		if len(c.Kinds) < cs.gates {
			t.Fatalf("%s: %d gates, want >= %d", cs.name, len(c.Kinds), cs.gates)
		}
	}
	for _, bad := range []string{"", "frob", "mul", "12", "dag-5", "mulx4", "mul999999999999999999999"} {
		if _, err := gen.ByName(bad, gen.Unit, 1); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// Fine delays propagate.
	c, err := gen.ByName("dag200", gen.Fine(9, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxDelay() < 2 {
		t.Fatal("fine delays not applied through ByName")
	}
}
