package seq

import (
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/supervise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// stim builds a stimulus from raw changes.
func stim(end circuit.Tick, chs ...vectors.Change) *vectors.Stimulus {
	return &vectors.Stimulus{Changes: chs, End: end}
}

// run2 runs with the 2-valued system and sane defaults.
func run2(t *testing.T, c *circuit.Circuit, s *vectors.Stimulus, until circuit.Tick) *Result {
	t.Helper()
	res, err := Run(c, s, until, Config{System: logic.TwoValued, MaxEvents: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// laneInitial returns the per-lane dedup baseline for wide waveform
// extraction: the projected time-zero value of each net, identical across
// lanes and identical to the scalar engine's initial committed value.
func laneInitial(c *circuit.Circuit, sys logic.System) func(circuit.GateID) logic.Value {
	return func(g circuit.GateID) logic.Value {
		return sys.Project(circuit.InitialValue(c.Gates[g].Kind))
	}
}

// runLane0 is Run on the wide plane: the stimulus is splatted into every
// lane and lane 0 of the outcome comes back in scalar form, so a test body
// written against Run checks both planes.
func runLane0(c *circuit.Circuit, s *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	ws, err := vectors.Splat(c, s, logic.Lanes, cfg.System)
	if err != nil {
		return nil, err
	}
	w, err := RunWide(c, ws, until, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Values:   make([]logic.Value, len(w.Values)),
		Waveform: trace.WideWaveform(w.Waveform).Lane(0, laneInitial(c, cfg.System)),
		EndTime:  w.EndTime, CriticalPath: w.CriticalPath, Counters: w.Counters, EvalsByGate: w.EvalsByGate,
	}
	for g, v := range w.Values {
		res.Values[g] = v.Get(0)
	}
	return res, nil
}

// planes lists the two instantiations of the engine body, for the tests
// whose subject does not depend on the value type.
var planes = []struct {
	name string
	run  func(*circuit.Circuit, *vectors.Stimulus, circuit.Tick, Config) (*Result, error)
}{{"scalar", Run}, {"wide", runLane0}}

func TestNandTruthTable(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	n := b.Gate(circuit.Nand, "n", a, bb)
	y := b.Output("y", n)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want logic.Value }{
		{logic.Zero, logic.Zero, logic.One},
		{logic.Zero, logic.One, logic.One},
		{logic.One, logic.Zero, logic.One},
		{logic.One, logic.One, logic.Zero},
	}
	for _, cs := range cases {
		s := stim(0,
			vectors.Change{Time: 0, Input: a, Value: cs.a},
			vectors.Change{Time: 0, Input: bb, Value: cs.b},
		)
		res := run2(t, c, s, 100)
		if res.Values[y] != cs.want {
			t.Errorf("NAND(%v,%v) -> %v, want %v", cs.a, cs.b, res.Values[y], cs.want)
		}
	}
}

func TestGlitchPropagationWithUnequalDelays(t *testing.T) {
	// y = a AND not(a). With delay(not)=3, a 0->1 input change makes y
	// pulse high for exactly the inverter delay (transport semantics).
	b := circuit.NewBuilder()
	a := b.Input("a")
	inv := b.GateDelay(circuit.Not, "inv", 3, a)
	and := b.GateDelay(circuit.And, "and", 1, a, inv)
	y := b.Output("y", and)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := stim(10,
		vectors.Change{Time: 0, Input: a, Value: logic.Zero},
		vectors.Change{Time: 10, Input: a, Value: logic.One},
	)
	res, err := Run(c, s, 100, Config{System: logic.TwoValued, Watch: []circuit.GateID{and, y}})
	if err != nil {
		t.Fatal(err)
	}
	// a rises at 10; and sees (a=1, inv=1) from 10 until inv falls at 13.
	// and output: 1 at 11, back to 0 at 14.
	want := trace.Waveform{
		{Time: 11, Gate: and, Value: logic.One},
		{Time: 12, Gate: y, Value: logic.One},
		{Time: 14, Gate: and, Value: logic.Zero},
		{Time: 15, Gate: y, Value: logic.Zero},
	}
	if d := trace.Diff(want, res.Waveform, 10); d != "" {
		t.Fatalf("glitch waveform wrong:\n%s", d)
	}
}

func TestCounterCounts(t *testing.T) {
	c, err := gen.Counter(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	clk, _ := c.ByName("clk")
	en, _ := c.ByName("en")
	chs := []vectors.Change{
		{Time: 0, Input: clk, Value: logic.Zero},
		{Time: 0, Input: en, Value: logic.One},
	}
	const cycles = 11
	for k := 0; k < cycles; k++ {
		base := circuit.Tick(k) * 40
		chs = append(chs,
			vectors.Change{Time: base + 20, Input: clk, Value: logic.One},
			vectors.Change{Time: base + 40, Input: clk, Value: logic.Zero},
		)
	}
	s := &vectors.Stimulus{Changes: chs, End: cycles * 40}
	res := run2(t, c, s, cycles*40+20)
	var got uint64
	for i := 0; i < 4; i++ {
		q, _ := c.ByName(getName("q", i))
		if bit, ok := res.Values[q].Bool(); ok && bit {
			got |= 1 << i
		}
	}
	if got != cycles%16 {
		t.Fatalf("counter = %d after %d cycles, want %d", got, cycles, cycles%16)
	}
}

func getName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestLFSRMatchesSoftwareModel(t *testing.T) {
	const bits = 6
	c, err := gen.LFSR(bits, nil, gen.Unit) // taps {0, bits-1}
	if err != nil {
		t.Fatal(err)
	}
	clk, _ := c.ByName("clk")
	rst, _ := c.ByName("rst")
	chs := []vectors.Change{
		{Time: 0, Input: clk, Value: logic.Zero},
		{Time: 0, Input: rst, Value: logic.One},
	}
	const cycles = 20
	for k := 0; k < cycles; k++ {
		base := circuit.Tick(k) * 40
		chs = append(chs,
			vectors.Change{Time: base + 20, Input: clk, Value: logic.One},
			vectors.Change{Time: base + 40, Input: clk, Value: logic.Zero},
		)
	}
	// Release reset after the first rising edge.
	chs = append(chs, vectors.Change{Time: 30, Input: rst, Value: logic.Zero})
	s := &vectors.Stimulus{Changes: chs, End: cycles * 40}
	s.Sort()
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
	res := run2(t, c, s, cycles*40+20)

	// Software model: edge 1 loads reset state (q0=1, rest 0); the
	// remaining cycles-1 edges shift with feedback q0 ^ q(bits-1).
	state := make([]bool, bits)
	state[0] = true
	for k := 1; k < cycles; k++ {
		fb := state[0] != state[bits-1]
		copy(state[1:], state[:bits-1])
		state[0] = fb
	}
	for i := 0; i < bits; i++ {
		q, _ := c.ByName(getName("q", i))
		got, ok := res.Values[q].Bool()
		if !ok {
			t.Fatalf("q%d undriven: %v", i, res.Values[q])
		}
		if got != state[i] {
			t.Fatalf("q%d = %v, want %v", i, got, state[i])
		}
	}
}

func TestNineValuedUnknownPropagation(t *testing.T) {
	// Leave input b undriven: in the 9-valued system it stays U and the
	// AND output must not pretend to know the answer (except a=0).
	b := circuit.NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	g := b.Gate(circuit.And, "g", a, bb)
	y := b.Output("y", g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := stim(0, vectors.Change{Time: 0, Input: a, Value: logic.One})
	res, err := Run(c, s, 100, Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[g] != logic.U {
		t.Fatalf("AND(1,U) = %v, want U", res.Values[g])
	}
	// The Output buffer strength-normalizes U to X.
	if res.Values[y] != logic.X {
		t.Fatalf("output buffer of U = %v, want X", res.Values[y])
	}
	// a=0 dominates regardless of the unknown.
	s0 := stim(0, vectors.Change{Time: 0, Input: a, Value: logic.Zero})
	res0, err := Run(c, s0, 100, Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Values[y] != logic.Zero {
		t.Fatalf("AND(0,U) output = %v, want 0", res0.Values[y])
	}
}

func TestOscillatorHitsEventLimit(t *testing.T) {
	// A transparent latch with its own inverted output as data oscillates.
	b := circuit.NewBuilder()
	en := b.Input("en")
	lt := b.Gate(circuit.DLatch, "lt", en, en) // placeholder fanin
	inv := b.Gate(circuit.Not, "inv", lt)
	b.SetFanin(lt, []circuit.GateID{inv, en})
	b.Output("y", lt)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := stim(0, vectors.Change{Time: 0, Input: en, Value: logic.One})
	for _, pl := range planes {
		_, err = pl.run(c, s, 1_000_000, Config{System: logic.TwoValued, MaxEvents: 10_000})
		var se *supervise.SimError
		if !errors.As(err, &se) || se.Kind != supervise.KindEventLimit {
			t.Fatalf("%s: oscillator did not hit the event limit: %v", pl.name, err)
		}
	}
}

func TestQueueImplementationsAgree(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 10, Outputs: 8, Seed: 9, Delays: gen.Fine(8, 9)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := vectors.Random(c, vectors.RandomConfig{Vectors: 30, Period: 20, Activity: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	until := Horizon(c, s)
	var ref *Result
	for _, pl := range planes {
		for _, impl := range []eventq.Impl{eventq.ImplHeap, eventq.ImplCalendar, eventq.ImplWheel} {
			res, err := pl.run(c, s, until, Config{System: logic.TwoValued, Queue: impl})
			if err != nil {
				t.Fatalf("%s %v: %v", pl.name, impl, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
				t.Fatalf("%s %v waveform differs from scalar heap:\n%s", pl.name, impl, d)
			}
			for g := range ref.Values {
				if ref.Values[g] != res.Values[g] {
					t.Fatalf("%s %v final value differs at gate %d", pl.name, impl, g)
				}
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	s, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 30, Activity: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range planes {
		res, err := pl.run(c, s, Horizon(c, s), Config{System: logic.TwoValued, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Counters
		if st.EventsApplied == 0 || st.Evaluations == 0 || st.Steps == 0 {
			t.Fatalf("%s: stats are zero: %+v", pl.name, st)
		}
		if res.EvalsByGate == nil {
			t.Fatalf("%s: profile not collected", pl.name)
		}
		var sum uint64
		for _, n := range res.EvalsByGate {
			sum += n
		}
		if sum != st.Evaluations {
			t.Fatalf("%s: per-gate evals %d != total %d", pl.name, sum, st.Evaluations)
		}
		// Events applied can exceed scheduled by at most the stimulus size.
		if st.EventsApplied > st.EventsScheduled+uint64(len(s.Changes)) {
			t.Fatalf("%s: applied %d > scheduled %d + stimulus %d", pl.name, st.EventsApplied, st.EventsScheduled, len(s.Changes))
		}
	}
}

func TestWatchDefaultsToOutputs(t *testing.T) {
	c, err := gen.RippleAdder(2, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	s, err := vectors.Random(c, vectors.RandomConfig{Vectors: 5, Period: 20, Activity: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := run2(t, c, s, Horizon(c, s))
	isOut := map[circuit.GateID]bool{}
	for _, o := range c.Outputs {
		isOut[o] = true
	}
	if len(res.Waveform) == 0 {
		t.Fatal("no waveform recorded")
	}
	for _, smp := range res.Waveform {
		if !isOut[smp.Gate] {
			t.Fatalf("non-output gate %d in default waveform", smp.Gate)
		}
	}
}

func TestHorizonBeyondStimulus(t *testing.T) {
	c, err := gen.RippleAdder(8, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	s, err := vectors.Random(c, vectors.RandomConfig{Vectors: 3, Period: 10, Activity: 1, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if h := Horizon(c, s); h <= s.End {
		t.Fatalf("Horizon %d not beyond stimulus end %d", h, s.End)
	}
}

func TestEventsBeyondHorizonDiscarded(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	n := b.GateDelay(circuit.Not, "n", 50, a)
	b.Output("y", n)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := stim(10,
		vectors.Change{Time: 0, Input: a, Value: logic.Zero},
		vectors.Change{Time: 10, Input: a, Value: logic.One},
	)
	// Horizon 20: the inverter's response at t=60 must not be processed.
	res := run2(t, c, s, 20)
	if res.EndTime > 20 {
		t.Fatalf("processed beyond horizon: %d", res.EndTime)
	}
	if len(res.Waveform) != 0 {
		t.Fatalf("output changed within horizon: %v", res.Waveform)
	}
}

func TestZeroDelayRejected(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	b.GateDelay(circuit.Not, "n", 0, a)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range planes {
		if _, err := pl.run(c, stim(0), 10, Config{System: logic.FourValued}); err == nil {
			t.Fatalf("%s: zero-delay circuit accepted", pl.name)
		}
	}
}

func TestInvalidStimulusRejected(t *testing.T) {
	c, err := gen.RippleAdder(2, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	// A non-input gate, and a gate id beyond the circuit: either would
	// index the value planes unchecked if it reached the engine.
	for _, g := range []circuit.GateID{c.Outputs[0], circuit.GateID(len(c.Gates))} {
		bad := stim(10, vectors.Change{Time: 0, Input: g, Value: logic.One})
		if _, err := Run(c, bad, 10, Config{}); err == nil {
			t.Fatalf("scalar: stimulus driving gate %d accepted", g)
		}
		wbad := &vectors.WideStimulus{End: 10, Lanes: 1,
			Changes: []vectors.WideChange{{Time: 0, Input: g, Value: logic.Splat(logic.One)}}}
		if _, err := RunWide(c, wbad, 10, WideConfig{}); err == nil {
			t.Fatalf("wide: stimulus driving gate %d accepted", g)
		}
	}
}

func TestCriticalPathBounds(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 300, Inputs: 10, Outputs: 6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	s, err := vectors.Random(c, vectors.RandomConfig{Vectors: 15, Period: 40, Activity: 0.6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range planes {
		res, err := pl.run(c, s, Horizon(c, s), Config{System: logic.TwoValued, CriticalPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.CriticalPath <= 0 {
			t.Fatalf("%s: no critical path computed", pl.name)
		}
		// The makespan with unlimited processors can never exceed the
		// serial time, and must be at least one evaluation unit deep.
		m := stats.DefaultCostModel()
		seqTime := stats.SequentialTime(m, res.Counters.Evaluations, res.Counters.EventsApplied, res.Counters.EventsScheduled)
		if res.CriticalPath > seqTime {
			t.Fatalf("%s: critical path %f exceeds serial time %f", pl.name, res.CriticalPath, seqTime)
		}
		if res.CriticalPath < m.EvalCost {
			t.Fatalf("%s: critical path %f below one evaluation", pl.name, res.CriticalPath)
		}
	}
	// Disabled by default.
	res2, err := Run(c, s, Horizon(c, s), Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CriticalPath != 0 {
		t.Fatal("critical path computed without being requested")
	}
}

func TestCriticalPathChainsThroughLogic(t *testing.T) {
	// A single N-gate inverter chain driven once: the critical path must
	// grow linearly with N (every evaluation depends on the previous one).
	depth := func(n int) float64 {
		b := circuit.NewBuilder()
		a := b.Input("a")
		prev := a
		for i := 0; i < n; i++ {
			prev = b.Gate(circuit.Not, getName("g", i%10)+getName("x", i/10%10)+getName("y", i/100), prev)
		}
		b.Output("y", prev)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := stim(10,
			vectors.Change{Time: 0, Input: a, Value: logic.Zero},
			vectors.Change{Time: 10, Input: a, Value: logic.One})
		res, err := Run(c, s, 10_000, Config{System: logic.TwoValued, CriticalPath: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.CriticalPath
	}
	d20, d40 := depth(20), depth(40)
	if d40 < 1.8*d20 {
		t.Fatalf("critical path not chaining: depth 20 -> %f, depth 40 -> %f", d20, d40)
	}
}

// TestRunWideLaneExact is the foundation check for the whole wide path:
// every lane of a wide run must reproduce, sample for sample, the scalar
// reference run of that lane's stimulus.
func TestRunWideLaneExact(t *testing.T) {
	cases := []struct {
		name string
		sys  logic.System
		seq  bool
	}{
		{"comb-2v", logic.TwoValued, false},
		{"comb-4v", logic.FourValued, false},
		{"seq-2v", logic.TwoValued, true},
		{"seq-4v", logic.FourValued, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var (
				c   *circuit.Circuit
				err error
			)
			if tc.seq {
				c, err = gen.RandomSeq(gen.RandomConfig{Gates: 120, Inputs: 8, Outputs: 6, Locality: 0.5, Seed: 9, FFRatio: 0.2})
			} else {
				c, err = gen.RandomDAG(gen.RandomConfig{Gates: 120, Inputs: 8, Outputs: 6, Locality: 0.5, Seed: 9})
			}
			if err != nil {
				t.Fatal(err)
			}
			const lanes = 64
			var (
				ws    *vectors.WideStimulus
				stims []*vectors.Stimulus
			)
			if tc.seq {
				ws, stims, err = vectors.ClockedBatch(c, vectors.ClockedConfig{Clock: "clk", Cycles: 6, HalfPeriod: 8, Activity: 0.5, Seed: 21}, lanes, tc.sys)
			} else {
				ws, stims, err = vectors.RandomBatch(c, vectors.RandomConfig{Vectors: 6, Period: 16, Activity: 0.6, Seed: 21}, lanes, tc.sys)
			}
			if err != nil {
				t.Fatal(err)
			}
			until := HorizonFrom(c, ws.End)
			wres, err := RunWide(c, ws, until, WideConfig{System: tc.sys})
			if err != nil {
				t.Fatal(err)
			}
			init := laneInitial(c, tc.sys)
			for k := 0; k < lanes; k++ {
				sres, err := Run(c, stims[k], until, Config{System: tc.sys})
				if err != nil {
					t.Fatalf("lane %d scalar: %v", k, err)
				}
				got := trace.WideWaveform(wres.Waveform).Lane(k, init)
				if d := trace.Diff(sres.Waveform, got, 6); d != "" {
					t.Fatalf("lane %d waveform mismatch:\n%s", k, d)
				}
				for _, out := range c.Outputs {
					if g, w := wres.Values[out].Get(k), sres.Values[out].ToX01Z(); g != w {
						t.Fatalf("lane %d final %d: wide %v, scalar %v", k, out, g, w)
					}
				}
			}
		})
	}
}

// TestRunWideRejectsNineValued pins the wide plane's system constraint.
func TestRunWideRejectsNineValued(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 20, Inputs: 4, Outputs: 2, Locality: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := vectors.RandomBatch(c, vectors.RandomConfig{Vectors: 2, Period: 10, Activity: 0.5, Seed: 1}, 4, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWide(c, ws, 100, WideConfig{System: logic.NineValued}); err == nil {
		t.Fatal("nine-valued wide run unexpectedly succeeded")
	}
}
