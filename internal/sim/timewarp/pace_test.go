package timewarp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// TestBudgetDue walks the in-process round rule through held history
// that grows, is collected and stalls above GVT: a round is due the
// moment held history reaches the budget, not again until it has grown by
// half the budget from its low point after the round, and a history limit
// only ever tightens the budget.
func TestBudgetDue(t *testing.T) {
	b := newBudget(10, 0)
	if b.words != budgetFloor {
		t.Fatalf("10 gates: budget %d, want the floor %d", b.words, budgetFloor)
	}
	if w := newBudget(100_000, 0).words; w != budgetPerGate*100_000 {
		t.Fatalf("100 000 gates: budget %d, want %d", w, budgetPerGate*100_000)
	}
	if w := newBudget(100_000, 500).words; w != 500 {
		t.Fatalf("a limit of 500: budget %d", w)
	}
	if w := newBudget(10, 1<<40).words; w != budgetFloor {
		t.Fatalf("a limit above the budget: budget %d", w)
	}
	b = newBudget(100, 1000) // 1000 words
	for _, step := range []struct {
		held uint64
		due  bool
		mark bool // a round ends here
	}{
		{0, false, false},
		{999, false, false},
		{1000, true, true},   // the budget: a round
		{1200, false, false}, // not yet collected: no second round
		{300, false, false},  // collected down to 300
		{999, false, false},
		{1000, true, true},   // 700 above the low point of 300
		{900, false, false},  // little collected: the LPs run far above GVT
		{1300, false, false}, // over the budget, but only 400 above the low point
		{1400, true, true},   // 500 above it
	} {
		if got := b.due(step.held); got != step.due {
			t.Fatalf("held %d: due %v, want %v (budget %+v)", step.held, got, step.due, *b)
		}
		if step.mark {
			b.mark(step.held)
		}
	}
}

// TestRoundsPacedByHeldHistory runs dag2000 over 8 LPs under a history
// limit of 4 000 words, which makes the budget a fifth of its natural
// 20 000, with a wall-clock interval too long to fire. It reads the held
// history the coordinator saw as it started each round (the
// "held_history" counter track). About half the rounds start at the
// budget; the others start with every LP idle, parked at the edge of the
// window the limit's clamp sets. Paced by events instead, the run has one
// round, at its end, and holds 263 690 words at its peak: the whole run's
// history.
//
// The peak bound is ten budgets, 40 000 words. The step that takes held
// history to the budget wakes the coordinator, but the round starts only
// once the coordinator runs and each LP reaches its next step: alone on
// two CPUs the run peaks at 6 000 to 10 000 words, and with two more such
// runs competing for the CPUs at up to 29 000.
func TestRoundsPacedByHeldHistory(t *testing.T) {
	const budgetWords, peakBound = 4_000, 40_000
	c, err := gen.ByName("dag2000", gen.Fine(4, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: 40, Activity: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodFM, c, 8, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer("timewarp")
	reg := metrics.NewRegistry("timewarp")
	res, err := Run(c, stim, until, Config{
		Partition: p, System: logic.TwoValued, HistoryLimit: budgetWords,
		GVTInterval: time.Hour, Tracer: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
		t.Fatalf("waveform differs from seq:\n%s", d)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var starts []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" && ev.Name == "held_history" {
			starts = append(starts, ev.Args["held_history"].(float64))
		}
	}
	peak := reg.Report().Gauges["history_peak_words"]
	t.Logf("%d rounds, held at their starts %v, peak %v", res.Stats.GVTRounds, starts, peak)
	if uint64(len(starts)) != res.Stats.GVTRounds {
		t.Fatalf("%d held_history samples for %d rounds", len(starts), res.Stats.GVTRounds)
	}
	atBudget := 0
	for _, w := range starts {
		if w >= budgetWords {
			atBudget++
		}
	}
	if atBudget < 10 {
		t.Fatalf("%d of %d rounds started at the budget of %d words: %v", atBudget, len(starts), budgetWords, starts)
	}
	if peak < budgetWords || peak > peakBound {
		t.Fatalf("history_peak_words %v, want within [%d, %d]", peak, budgetWords, peakBound)
	}
}
