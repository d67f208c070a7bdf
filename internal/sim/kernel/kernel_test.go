package kernel

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/sim/phase"
)

// harness wires an LP over a small circuit with capture callbacks.
type harness struct {
	lp        *LP
	scheduled []struct {
		t circuit.Tick
		g circuit.GateID
		v logic.Value
	}
	sent []struct {
		dst int
		t   circuit.Tick
		g   circuit.GateID
		v   logic.Value
	}
	recorded int
}

func newHarness(t *testing.T, c *circuit.Circuit, owner []int, self int) *harness {
	t.Helper()
	var own []circuit.GateID
	for g, o := range owner {
		if o == self {
			own = append(own, circuit.GateID(g))
		}
	}
	h := &harness{}
	h.lp = New(c, owner, self, logic.TwoValued, c.Outputs, own)
	h.lp.Schedule = func(tk circuit.Tick, g circuit.GateID, v logic.Value) {
		h.scheduled = append(h.scheduled, struct {
			t circuit.Tick
			g circuit.GateID
			v logic.Value
		}{tk, g, v})
	}
	h.lp.Send = func(dst int, tk circuit.Tick, g circuit.GateID, v logic.Value) {
		h.sent = append(h.sent, struct {
			dst int
			t   circuit.Tick
			g   circuit.GateID
			v   logic.Value
		}{dst, tk, g, v})
	}
	h.lp.Record = func(circuit.Tick, circuit.GateID, logic.Value) { h.recorded++ }
	return h
}

// twoLPCircuit: a=in -> inv (LP0) -> and with b (LP1).
func twoLPCircuit(t *testing.T) (*circuit.Circuit, []int) {
	t.Helper()
	b := circuit.NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	inv := b.Gate(circuit.Not, "inv", a)
	and := b.Gate(circuit.And, "and", inv, bb)
	b.Output("y", and)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, len(c.Kinds))
	andID, _ := c.ByName("and")
	yID, _ := c.ByName("y")
	owner[andID], owner[yID], owner[bb] = 1, 1, 1
	return c, owner
}

func TestStepEvaluatesOnlyOwnedGates(t *testing.T) {
	c, owner := twoLPCircuit(t)
	h := newHarness(t, c, owner, 0)
	a, _ := c.ByName("a")
	var st metrics.LPCounters
	h.lp.Step(0, []Event{{a, logic.One}}, false, nil, &st)
	// LP0 owns a and inv; only inv is evaluated (a's change dirties it).
	if st.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1", st.Evaluations)
	}
	// inv output 0 == projected initial 0 in the 2-valued system: no
	// schedule. Run the settling step instead.
	h2 := newHarness(t, c, owner, 0)
	h2.lp.Step(0, []Event{{a, logic.Zero}}, true, nil, &st)
	// Settling evaluates inv (only owned non-source gate) -> 1 != 0.
	if len(h2.scheduled) != 1 {
		t.Fatalf("scheduled %v", h2.scheduled)
	}
	if h2.scheduled[0].v != logic.One {
		t.Fatalf("inv output %v", h2.scheduled[0].v)
	}
}

func TestCrossLPSendDedup(t *testing.T) {
	c, owner := twoLPCircuit(t)
	h := newHarness(t, c, owner, 0)
	var st metrics.LPCounters
	// Settle: inv -> 1 scheduled at t=1 and sent to LP1 exactly once.
	h.lp.Step(0, nil, true, nil, &st)
	if len(h.sent) != 1 || h.sent[0].dst != 1 {
		t.Fatalf("sent = %v", h.sent)
	}
	if h.sent[0].t != 1 {
		t.Fatalf("send time = %d", h.sent[0].t)
	}
	if st.MessagesSent != 1 {
		t.Fatalf("MessagesSent = %d", st.MessagesSent)
	}
}

func TestUndoRoundTrip(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 150, Inputs: 6, Outputs: 4, Seed: 3, FFRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, len(c.Kinds))
	var own []circuit.GateID
	for g := range owner {
		own = append(own, circuit.GateID(g))
	}
	lp := New(c, owner, 0, logic.TwoValued, c.Outputs, own)
	var sched []Event
	lp.Schedule = func(tk circuit.Tick, g circuit.GateID, v logic.Value) {
		sched = append(sched, Event{g, v})
	}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
	var st metrics.LPCounters

	// Settle, snapshot the state, run a few steps with undo, roll back,
	// and require bit-identical state.
	lp.Step(0, nil, true, nil, &st)
	nets := lp.RelevantNets()
	var before Snapshot
	lp.TakeSnapshot(nets, &before)

	clk, _ := c.ByName("clk")
	var u Undo
	evs := [][]Event{
		{{clk, logic.One}},
		{{clk, logic.Zero}, {c.Inputs[1], logic.One}},
		{{clk, logic.One}},
	}
	for i, e := range evs {
		lp.Step(circuit.Tick(10*(i+1)), e, false, &u, &st)
		if i == 0 && u.Words() == 0 {
			t.Fatal("no undo captured for a clock edge")
		}
	}
	lp.Rollback(&u, UndoMark{}, &st)
	if u.Words() != 0 {
		t.Fatalf("undo log holds %d words after rolling back to its start", u.Words())
	}
	var after Snapshot
	lp.TakeSnapshot(nets, &after)
	for i := range before.val {
		if before.val[i] != after.val[i] || before.prevClk[i] != after.prevClk[i] || before.proj[i] != after.proj[i] {
			t.Fatalf("state differs at net %d after rollback", nets[i])
		}
	}
	if st.EventsRolledBack == 0 {
		t.Fatal("rollback stats not counted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	c, err := gen.Counter(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, len(c.Kinds))
	var own []circuit.GateID
	for g := range owner {
		own = append(own, circuit.GateID(g))
	}
	lp := New(c, owner, 0, logic.TwoValued, c.Outputs, own)
	lp.Schedule = func(circuit.Tick, circuit.GateID, logic.Value) {}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
	var st metrics.LPCounters
	lp.Step(0, nil, true, nil, &st)
	nets := lp.RelevantNets()
	var snap Snapshot
	lp.TakeSnapshot(nets, &snap)
	if snap.Words() == 0 {
		t.Fatal("empty snapshot")
	}
	clk, _ := c.ByName("clk")
	en, _ := c.ByName("en")
	lp.Step(5, []Event{{clk, logic.One}, {en, logic.One}}, false, nil, &st)
	lp.RestoreSnapshot(nets, &snap)
	var again Snapshot
	lp.TakeSnapshot(nets, &again)
	for i := range snap.val {
		if snap.val[i] != again.val[i] {
			t.Fatal("restore incomplete")
		}
	}
}

func TestStepParallelMatchesSerial(t *testing.T) {
	c, err := gen.ArrayMultiplier(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, len(c.Kinds))
	var own []circuit.GateID
	for g := range owner {
		own = append(own, circuit.GateID(g))
	}
	mk := func() (*LP, *[]Event) {
		lp := New(c, owner, 0, logic.TwoValued, c.Outputs, own)
		sched := &[]Event{}
		lp.Schedule = func(tk circuit.Tick, g circuit.GateID, v logic.Value) {
			*sched = append(*sched, Event{g, v})
		}
		lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
		return lp, sched
	}
	serial, ss := mk()
	par, ps := mk()
	var st1, st2 metrics.LPCounters
	pool := phase.New(4, "test", nil, par.EvalPart)
	defer pool.Close()

	serial.Step(0, nil, true, nil, &st1)
	maxChunk, err := par.StepParallel(0, nil, true, nil, &st2, pool)
	if err != nil {
		t.Fatal(err)
	}
	if maxChunk <= 0 {
		t.Fatal("no parallel chunks")
	}
	if len(*ss) != len(*ps) {
		t.Fatalf("schedule counts differ: %d vs %d", len(*ss), len(*ps))
	}
	for i := range *ss {
		if (*ss)[i] != (*ps)[i] {
			t.Fatalf("schedule %d differs", i)
		}
	}
	if st1.Evaluations != st2.Evaluations {
		t.Fatalf("evaluation counts differ: %d vs %d", st1.Evaluations, st2.Evaluations)
	}
	for g := range owner {
		if serial.Value(circuit.GateID(g)) != par.Value(circuit.GateID(g)) {
			t.Fatalf("value mismatch at gate %d", g)
		}
	}
}

func TestRecordOnlyWatchedOwned(t *testing.T) {
	c, owner := twoLPCircuit(t)
	// LP1 owns the output gate y; settling changes it (and -> ... ).
	h := newHarness(t, c, owner, 1)
	var st metrics.LPCounters
	h.lp.Step(0, nil, true, nil, &st)
	// y stays 0 on settle (and=0), so nothing recorded yet; force b high
	// then and high then y high across steps.
	bID, _ := c.ByName("b")
	invID, _ := c.ByName("inv")
	h.lp.Step(1, []Event{{bID, logic.One}, {invID, logic.One}}, false, nil, &st)
	// and evaluates to 1, scheduled at t=2 -> apply it.
	h.lp.Step(2, []Event{{mustID(t, c, "and"), logic.One}}, false, nil, &st)
	h.lp.Step(3, []Event{{mustID(t, c, "y"), logic.One}}, false, nil, &st)
	if h.recorded == 0 {
		t.Fatal("watched output change not recorded")
	}
}

func mustID(t *testing.T, c *circuit.Circuit, name string) circuit.GateID {
	t.Helper()
	id, ok := c.ByName(name)
	if !ok {
		t.Fatalf("no gate %s", name)
	}
	return id
}
