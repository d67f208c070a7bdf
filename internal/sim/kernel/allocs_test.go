package kernel

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
)

// warmLP builds a single-LP executor over a mid-sized DAG with two
// alternating input patterns, so every measured Step changes state — the
// same shape as the benchsuite kernel fixture.
func warmLP(t *testing.T) (*LP, [2][]Event) {
	t.Helper()
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 16, Outputs: 8, Locality: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, len(c.Gates))
	own := make([]circuit.GateID, len(c.Gates))
	for g := range own {
		own[g] = circuit.GateID(g)
	}
	lp := New(c, owner, 0, logic.TwoValued, nil, own)
	lp.Schedule = func(circuit.Tick, circuit.GateID, logic.Value) {}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
	var evs [2][]Event
	for i, in := range c.Inputs {
		v := logic.FromBool(i%2 == 0)
		evs[0] = append(evs[0], Event{Gate: in, Value: v})
		evs[1] = append(evs[1], Event{Gate: in, Value: logic.Not(v)})
	}
	return lp, evs
}

// TestWarmStepZeroAllocs pins the per-event hot path: once the LP's dirty
// list has grown to the circuit's working set, a timestep allocates
// nothing.
func TestWarmStepZeroAllocs(t *testing.T) {
	lp, evs := warmLP(t)
	var st metrics.LPCounters
	lp.Step(0, evs[0], true, nil, &st)
	tick := circuit.Tick(1)
	step := func() {
		lp.Step(tick, evs[int(tick)%2], false, nil, &st)
		tick++
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if a := testing.AllocsPerRun(500, step); a != 0 {
		t.Fatalf("warm Step allocates %.1f per op, want 0", a)
	}
}

// TestWarmStepUndoZeroAllocs is the Time Warp forward path: incremental
// state saving into a reused undo log must also be allocation-free once
// the log's change slices have grown.
func TestWarmStepUndoZeroAllocs(t *testing.T) {
	lp, evs := warmLP(t)
	var st metrics.LPCounters
	lp.Step(0, evs[0], true, nil, &st)
	undo := NewUndo[logic.Value](32, 8, 32)
	tick := circuit.Tick(1)
	step := func() {
		undo.Reset()
		lp.Step(tick, evs[int(tick)%2], false, undo, &st)
		tick++
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if a := testing.AllocsPerRun(500, step); a != 0 {
		t.Fatalf("warm Step+undo allocates %.1f per op, want 0", a)
	}
}
