package vectors

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
)

func buildSmall(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildClocked(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := gen.Counter(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRandomBasics(t *testing.T) {
	c := buildSmall(t)
	s, err := Random(c, RandomConfig{Vectors: 10, Period: 5, Activity: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
	if s.End != 50 {
		t.Fatalf("End = %d, want 50", s.End)
	}
	// Initial assignment covers every input at time 0.
	got := map[circuit.GateID]bool{}
	for _, ch := range s.Changes {
		if ch.Time == 0 {
			got[ch.Input] = true
		}
	}
	if len(got) != len(c.Inputs) {
		t.Fatalf("initial vector drives %d of %d inputs", len(got), len(c.Inputs))
	}
}

func TestRandomActivityScales(t *testing.T) {
	c := buildSmall(t)
	lo, err := Random(c, RandomConfig{Vectors: 200, Period: 2, Activity: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Random(c, RandomConfig{Vectors: 200, Period: 2, Activity: 0.95, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hi.Changes) <= 2*len(lo.Changes) {
		t.Fatalf("activity knob ineffective: lo=%d hi=%d changes", len(lo.Changes), len(hi.Changes))
	}
}

func TestRandomActivityOne(t *testing.T) {
	c := buildSmall(t)
	s, err := Random(c, RandomConfig{Vectors: 5, Period: 3, Activity: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Every input toggles every vector: (5+1) * inputs changes.
	want := 6 * len(c.Inputs)
	if len(s.Changes) != want {
		t.Fatalf("changes = %d, want %d", len(s.Changes), want)
	}
	// Consecutive changes per input alternate values.
	last := map[circuit.GateID]logic.Value{}
	for _, ch := range s.Changes {
		if prev, ok := last[ch.Input]; ok && prev == ch.Value {
			t.Fatalf("input %d did not toggle at %d", ch.Input, ch.Time)
		}
		last[ch.Input] = ch.Value
	}
}

func TestRandomDeterminism(t *testing.T) {
	c := buildSmall(t)
	cfg := RandomConfig{Vectors: 20, Period: 7, Activity: 0.4, Seed: 123}
	s1, _ := Random(c, cfg)
	s2, _ := Random(c, cfg)
	if len(s1.Changes) != len(s2.Changes) {
		t.Fatal("same seed, different stimulus")
	}
	for i := range s1.Changes {
		if s1.Changes[i] != s2.Changes[i] {
			t.Fatal("same seed, different stimulus")
		}
	}
}

func TestRandomErrors(t *testing.T) {
	c := buildSmall(t)
	if _, err := Random(c, RandomConfig{Vectors: 1, Period: 0}); err == nil {
		t.Error("Period 0 accepted")
	}
	if _, err := Random(c, RandomConfig{Vectors: -1, Period: 1}); err == nil {
		t.Error("negative vectors accepted")
	}
	if _, err := Random(c, RandomConfig{Vectors: 1, Period: 1, Activity: 1.5}); err == nil {
		t.Error("activity > 1 accepted")
	}
}

func TestClockedShape(t *testing.T) {
	c := buildClocked(t)
	s, err := Clocked(c, ClockedConfig{Clock: "clk", Cycles: 4, HalfPeriod: 10, Activity: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
	clk, _ := c.ByName("clk")
	// Clock edges: rises at 10, 30, 50, 70; falls at 20, 40, 60, 80.
	var clkChanges []Change
	for _, ch := range s.Changes {
		if ch.Input == clk {
			clkChanges = append(clkChanges, ch)
		}
	}
	if len(clkChanges) != 9 { // initial 0 + 8 edges
		t.Fatalf("clock changes = %d, want 9", len(clkChanges))
	}
	wantTimes := []circuit.Tick{0, 10, 20, 30, 40, 50, 60, 70, 80}
	for i, ch := range clkChanges {
		if ch.Time != wantTimes[i] {
			t.Fatalf("clock edge %d at %d, want %d", i, ch.Time, wantTimes[i])
		}
		wantV := logic.FromBool(i%2 == 1)
		if ch.Value != wantV {
			t.Fatalf("clock edge %d = %v, want %v", i, ch.Value, wantV)
		}
	}
	if s.End != 80 {
		t.Fatalf("End = %d, want 80", s.End)
	}
}

func TestClockedErrors(t *testing.T) {
	c := buildClocked(t)
	if _, err := Clocked(c, ClockedConfig{Clock: "nope", Cycles: 1, HalfPeriod: 1}); err == nil {
		t.Error("unknown clock accepted")
	}
	if _, err := Clocked(c, ClockedConfig{Clock: "clk", Cycles: 1, HalfPeriod: 0}); err == nil {
		t.Error("HalfPeriod 0 accepted")
	}
	if _, err := Clocked(c, ClockedConfig{Clock: "clk", Cycles: 1, HalfPeriod: 1, Activity: -0.5}); err == nil {
		t.Error("negative activity accepted")
	}
	// A non-input gate name must be rejected.
	cc, err := gen.Counter(2, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Clocked(cc, ClockedConfig{Clock: "q0", Cycles: 1, HalfPeriod: 1}); err == nil {
		t.Error("non-input clock accepted")
	}
}

func TestExhaustiveGray(t *testing.T) {
	c, err := gen.RippleAdder(1, gen.Unit) // 3 inputs: a0, b0, cin
	if err != nil {
		t.Fatal(err)
	}
	s, err := Exhaustive(c, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
	// 2^3 = 8 combinations; after t=0, exactly one change per boundary.
	count := map[circuit.Tick]int{}
	for _, ch := range s.Changes {
		count[ch.Time]++
	}
	if count[0] != 3 {
		t.Fatalf("initial changes = %d, want 3", count[0])
	}
	for k := 1; k < 8; k++ {
		if count[circuit.Tick(k)*5] != 1 {
			t.Fatalf("boundary %d has %d changes, want 1 (gray code)", k, count[circuit.Tick(k)*5])
		}
	}
	if _, err := Exhaustive(c, 5, 2); err == nil {
		t.Error("input limit not enforced")
	}
	if _, err := Exhaustive(c, 0, 8); err == nil {
		t.Error("period 0 accepted")
	}
}

func TestValidateCatchesBadStimulus(t *testing.T) {
	c := buildSmall(t)
	in0 := c.Inputs[0]
	notInput := c.Outputs[0]
	bad := []Stimulus{
		{Changes: []Change{{0, notInput, logic.One}}, End: 10},
		{Changes: []Change{{5, in0, logic.One}, {3, in0, logic.Zero}}, End: 10},
		{Changes: []Change{{3, in0, logic.One}, {3, in0, logic.Zero}}, End: 10},
		{Changes: []Change{{3, in0, logic.Value(99)}}, End: 10},
		{Changes: []Change{{30, in0, logic.One}}, End: 10},
	}
	for i := range bad {
		if err := bad[i].Validate(c); err == nil {
			t.Errorf("bad stimulus %d accepted", i)
		}
	}
}

func TestNumVectors(t *testing.T) {
	c := buildSmall(t)
	s, err := Random(c, RandomConfig{Vectors: 10, Period: 5, Activity: 1, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumVectors(); got != 11 {
		t.Fatalf("NumVectors = %d, want 11", got)
	}
	empty := &Stimulus{}
	if empty.NumVectors() != 0 {
		t.Fatal("empty stimulus has vectors")
	}
}
