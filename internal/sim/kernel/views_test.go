package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
)

// TestViewsMatchOwnerTests: on random circuits under random owner maps,
// every LP's compiled fanout view selects exactly what testing the owner
// of every fanout selects: the owned fanouts of every net. (The readers
// an owned gate's changes go to are the partition's LP graph, which
// partition's TestGraphMatchesOwnerTests holds to the same definition.)
func TestViewsMatchOwnerTests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		cfg := gen.RandomConfig{Gates: 50 + rng.Intn(300), Inputs: 1 + rng.Intn(12), Outputs: 1 + rng.Intn(6),
			Locality: rng.Float64(), Seed: rng.Int63(), FFRatio: 0.15}
		mk := gen.RandomDAG
		if trial%2 == 1 {
			mk = gen.RandomSeq
		}
		c, err := mk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(8)
		owner := make([]int, len(c.Kinds))
		for g := range owner {
			owner[g] = rng.Intn(k)
		}
		for self := 0; self < k; self++ {
			var own []circuit.GateID
			for g, o := range owner {
				if o == self {
					own = append(own, circuit.GateID(g))
				}
			}
			lp := New(c, owner, self, logic.TwoValued, c.Outputs, own)
			for g := range c.Kinds {
				id := circuit.GateID(g)
				var fan []circuit.GateID
				for _, out := range c.FanoutAdj.Row(id) {
					if owner[out] == self {
						fan = append(fan, out)
					}
				}
				if got := lp.fan.Row(id); !slices.Equal(got, fan) {
					t.Fatalf("trial %d, LP %d/%d, net %d: owned fanouts %v, owner tests select %v", trial, self, k, g, got, fan)
				}
			}
		}
	}
}

// TestUndoMarks: steps appended to one undo log roll back to any mark
// taken between them, also after the entries before an earlier mark were
// dropped and the later marks moved down.
func TestUndoMarks(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 200, Inputs: 8, Outputs: 4, Seed: 9, FFRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, len(c.Kinds))
	own := make([]circuit.GateID, len(c.Kinds))
	for g := range own {
		own[g] = circuit.GateID(g)
	}
	lp := New(c, owner, 0, logic.TwoValued, c.Outputs, own)
	lp.Schedule = func(circuit.Tick, circuit.GateID, logic.Value) {}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
	var st metrics.LPCounters
	lp.Step(0, nil, true, nil, &st)
	nets := lp.RelevantNets()
	rng := rand.New(rand.NewSource(2))
	var u Undo
	var marks []UndoMark
	var snaps []Snapshot
	for i := 0; i < 8; i++ {
		marks = append(marks, u.Mark())
		snaps = append(snaps, Snapshot{})
		lp.TakeSnapshot(nets, &snaps[i])
		var evs []Event
		for _, in := range c.Inputs {
			if rng.Intn(2) == 0 {
				evs = append(evs, Event{Gate: in, Value: logic.Not(lp.Value(in))})
			}
		}
		lp.Step(circuit.Tick(10*(i+1)), evs, false, &u, &st)
	}
	same := func(when string, want *Snapshot) {
		t.Helper()
		var got Snapshot
		lp.TakeSnapshot(nets, &got)
		if !slices.Equal(got.val, want.val) || !slices.Equal(got.prevClk, want.prevClk) || !slices.Equal(got.proj, want.proj) {
			t.Fatalf("%s: state differs from the snapshot at its mark", when)
		}
	}
	// Drop the first three steps' entries, as fossil collection does.
	base := marks[3]
	u.DropBefore(base)
	for i := range marks {
		if i >= 3 {
			marks[i] = marks[i].Minus(base)
		}
	}
	if marks[3] != (UndoMark{}) {
		t.Fatalf("the base mark moved to %+v, want the start", marks[3])
	}
	rolled := st.EventsRolledBack
	lp.Rollback(&u, marks[6], &st)
	same("rolled back to mark 6", &snaps[6])
	if u.Mark() != marks[6] {
		t.Fatalf("log ends at %+v after the rollback, want %+v", u.Mark(), marks[6])
	}
	lp.Rollback(&u, marks[3], &st)
	same("rolled back to mark 3", &snaps[3])
	if u.Words() != 0 || st.EventsRolledBack == rolled {
		t.Fatalf("log holds %d words, %d events rolled back", u.Words(), st.EventsRolledBack-rolled)
	}
}
