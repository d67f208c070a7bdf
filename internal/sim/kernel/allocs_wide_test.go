package kernel

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// warmWideLP is warmLP on the 64-lane plane: the same mid-sized DAG with
// two alternating whole-word input patterns whose lanes differ, so every
// measured wide step changes state in every lane.
func warmWideLP(t *testing.T, sweep bool) (*WideLP, [2][]WideEvent) {
	t.Helper()
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 16, Outputs: 8, Locality: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := &partition.Partition{Blocks: 1, Assign: make([]int, len(c.Kinds))}
	own := p.BlockGates()[0]
	lp := NewOn(circuit.Wide, c, p, 0, logic.TwoValued, nil, own)
	if sweep {
		lp.EnableSweep(SweepThreshold(len(own)))
	}
	lp.Schedule = func(circuit.Tick, circuit.GateID, logic.Word) {}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Word) {}
	// Checkerboard words: alternate lanes within each word and flip the
	// whole word between the two patterns, so both planes toggle.
	var a logic.Word
	for k := 0; k < logic.Lanes; k++ {
		a.Set(k, logic.FromBool(k%2 == 0))
	}
	b := logic.WideNot(a)
	var evs [2][]WideEvent
	for i, in := range c.Inputs {
		w0, w1 := a, b
		if i%2 == 1 {
			w0, w1 = b, a
		}
		evs[0] = append(evs[0], WideEvent{Gate: in, Value: w0})
		evs[1] = append(evs[1], WideEvent{Gate: in, Value: w1})
	}
	return lp, evs
}

// TestWarmWideStepZeroAllocs pins the wide per-event hot path: once the
// LP's dirty list has grown, a 64-lane timestep
// allocates nothing — the whole point of packing lanes into words.
func TestWarmWideStepZeroAllocs(t *testing.T) {
	lp, evs := warmWideLP(t, false)
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
		t.Fatalf("warm wide Step allocates %.1f per op, want 0", a)
	}
}

// TestWarmWideStepSweepZeroAllocs covers the oblivious block sweep the
// event-driven wide engines arm: replacing the dirty set with the full
// levelized block must reuse the dirty slice's capacity, not allocate.
func TestWarmWideStepSweepZeroAllocs(t *testing.T) {
	lp, evs := warmWideLP(t, true)
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
		t.Fatalf("warm wide sweep Step allocates %.1f per op, want 0", a)
	}
}

// TestWarmWideStepUndoZeroAllocs is the wide Time Warp forward path:
// incremental state saving of whole words into a reused undo log must also
// be allocation-free once the log's change slices have grown.
func TestWarmWideStepUndoZeroAllocs(t *testing.T) {
	lp, evs := warmWideLP(t, false)
	var st metrics.LPCounters
	lp.Step(0, evs[0], true, nil, &st)
	undo := NewUndo[logic.Word](32, 8, 32)
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
		t.Fatalf("warm wide Step+undo allocates %.1f per op, want 0", a)
	}
}
