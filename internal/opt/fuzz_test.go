package opt

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// FuzzOptimize asserts the optimizer's contract over generated netlists
// and arbitrary pass subsets: no panics; the optimized circuit satisfies
// every structural invariant the engines rely on (single dense ID space,
// in-range wiring, acyclic combinational graph, event-driven delays); the
// Remap is a consistent bridge; and for subsets of the exact default
// pipeline the sequential engine's primary-output waveform is
// bit-identical to the unoptimized run.
func FuzzOptimize(f *testing.F) {
	f.Add(int64(1), uint16(60), uint8(0), uint8(0b1111), uint8(3))
	f.Add(int64(7), uint16(200), uint8(30), uint8(0b0101), uint8(0))
	f.Add(int64(42), uint16(120), uint8(60), uint8(0b0010), uint8(255))
	f.Add(int64(-9), uint16(17), uint8(100), uint8(0b1000), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, gatesRaw uint16, ffPct, passMask, keepSel uint8) {
		gates := int(gatesRaw)%280 + 20
		var c *circuit.Circuit
		var err error
		if ffPct%101 > 0 {
			c, err = gen.RandomSeq(gen.RandomConfig{
				Gates: gates, Inputs: 6, Outputs: 4, Seed: seed,
				FFRatio: float64(ffPct%101) / 100,
			})
		} else {
			c, err = gen.RandomDAG(gen.RandomConfig{
				Gates: gates, Inputs: 6, Outputs: 4, Seed: seed, Locality: 0.5,
			})
		}
		if err != nil {
			t.Skip("generator rejected config")
		}

		var keep []circuit.GateID
		if keepSel > 0 {
			keep = append(keep, circuit.GateID(int(keepSel)%c.NumGates()))
		}
		var passes []string
		for i, name := range DefaultPasses {
			if passMask&(1<<i) != 0 {
				passes = append(passes, name)
			}
		}

		res, err := Optimize(c, Options{Passes: passes, Keep: keep})
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		checkOptimizedInvariants(t, c, res)

		// The full registry (including the settled-only opt-ins) must still
		// produce a structurally valid netlist and remap.
		all, err := Optimize(c, Options{Passes: AllPasses, Keep: keep})
		if err != nil {
			t.Fatalf("Optimize(AllPasses): %v", err)
		}
		checkOptimizedInvariants(t, c, all)

		// Waveform equivalence on the reference engine (exact subset only).
		stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 8, Period: 8, Activity: 0.6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ostim, err := res.Remap.Stimulus(stim)
		if err != nil {
			t.Fatal(err)
		}
		until := seq.Horizon(c, stim)
		for _, sys := range []logic.System{logic.TwoValued, logic.NineValued} {
			ref, err := seq.Run(c, stim, until, seq.Config{System: sys})
			if err != nil {
				t.Fatal(err)
			}
			got, err := seq.Run(res.Circuit, ostim, until, seq.Config{System: sys})
			if err != nil {
				t.Fatal(err)
			}
			if d := trace.Diff(ref.Waveform, res.Remap.WaveformBack(got.Waveform), 3); d != "" {
				t.Fatalf("system %v passes %v: waveform differs:\n%s", sys, passes, d)
			}
		}
	})
}

func checkOptimizedInvariants(t *testing.T, c *circuit.Circuit, res *Result) {
	t.Helper()
	oc := res.Circuit
	if oc.NumGates() == 0 {
		t.Fatal("optimized to an empty circuit")
	}
	if err := oc.CheckEventDriven(); err != nil {
		t.Fatalf("optimized delays: %v", err)
	}
	if _, err := oc.Levelize(); err != nil {
		t.Fatalf("optimized circuit has a combinational cycle: %v", err)
	}
	for id := range oc.Gates {
		for _, fi := range oc.Gates[id].Fanin {
			if fi < 0 || int(fi) >= oc.NumGates() {
				t.Fatalf("gate %d fanin %d out of range", id, fi)
			}
		}
	}
	if len(res.Remap.Fwd) != c.NumGates() || len(res.Remap.Back) != oc.NumGates() {
		t.Fatalf("remap sized %d/%d for %d->%d gates",
			len(res.Remap.Fwd), len(res.Remap.Back), c.NumGates(), oc.NumGates())
	}
	for ng, og := range res.Remap.Back {
		if og < 0 || int(og) >= c.NumGates() {
			t.Fatalf("Back[%d]=%d out of range", ng, og)
		}
		if res.Remap.Fwd[og] != circuit.GateID(ng) {
			t.Fatalf("Back[%d]=%d but Fwd[%d]=%d", ng, og, og, res.Remap.Fwd[og])
		}
	}
	for og, ng := range res.Remap.Fwd {
		if ng < 0 {
			continue
		}
		if int(ng) >= oc.NumGates() {
			t.Fatalf("Fwd[%d]=%d out of range", og, ng)
		}
	}
	for _, in := range c.Inputs {
		if _, ok := res.Remap.Gate(in); !ok {
			t.Fatalf("primary input %d eliminated", in)
		}
	}
	for _, out := range c.Outputs {
		if _, ok := res.Remap.Gate(out); !ok {
			t.Fatalf("primary output %d eliminated", out)
		}
	}
}
