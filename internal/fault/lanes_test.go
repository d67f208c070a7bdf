package fault

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// laneCase is one campaign the lane grader must grade exactly as the
// serial reference does.
type laneCase struct {
	name   string
	c      *circuit.Circuit
	stim   *vectors.Stimulus
	faults []Fault
}

// everySite lists both stuck-at faults on every gate, output markers and
// constants included: a superset of Universe.
func everySite(c *circuit.Circuit) []Fault {
	var out []Fault
	for id := range c.Kinds {
		out = append(out, Fault{circuit.GateID(id), logic.Zero}, Fault{circuit.GateID(id), logic.One})
	}
	return out
}

// withConstants adds a Const0 and a Const1 gate feeding one gate each of
// c's logic, so constant sites are graded too.
func withConstants(t testing.TB, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	gates := records(c)
	k0 := circuit.GateID(len(gates))
	gates = append(gates,
		circuit.Gate{Kind: circuit.Const0, Name: "k0"},
		circuit.Gate{Kind: circuit.Const1, Name: "k1"})
	fed := 0
	for id := range gates[:k0] {
		switch gates[id].Kind {
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor:
			gates[id].Fanin = append(gates[id].Fanin, k0+circuit.GateID(fed))
			fed++
		}
		if fed == 2 {
			break
		}
	}
	out, err := fromRecords(gates, c.Inputs, c.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randomCase builds a random circuit (a DAG, or with flip-flops when
// sequential) with fine delays and a stimulus for it.
func randomCase(t testing.TB, seed int64, sequential bool, gates int) (*circuit.Circuit, *vectors.Stimulus) {
	t.Helper()
	k := int(uint64(seed) % 15)
	cfg := gen.RandomConfig{Gates: gates, Inputs: 3 + k%5, Outputs: 2 + k%3, Locality: 0.5,
		Seed: seed, Delays: gen.Fine(6, seed)}
	var c *circuit.Circuit
	var err error
	if sequential {
		cfg.FFRatio = 0.15
		c, err = gen.RandomSeq(cfg)
	} else {
		c, err = gen.RandomDAG(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 8, Period: 30, Activity: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c, stim
}

// requireReference grades the campaign with Run and with the serial
// reference and requires the same result. The reference orders ties in
// (time, gate) arbitrarily, so its list is put in the one detection
// order before the comparison.
func requireReference(t testing.TB, lc laneCase, until circuit.Tick, workers int) {
	t.Helper()
	want, err := runReference(lc.c, lc.stim, until, lc.faults, Config{Workers: 2})
	if err != nil {
		t.Fatalf("%s: reference: %v", lc.name, err)
	}
	slices.SortFunc(want.Detections, compareDetections)
	got, err := Run(lc.c, lc.stim, until, lc.faults, Config{Workers: workers})
	if err != nil {
		t.Fatalf("%s: Run: %v", lc.name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (workers %d): Run and the reference disagree\n%s", lc.name, workers, diffResults(got, want))
	}
}

// diffResults lists the first detections only one of the two sorted
// results holds.
func diffResults(got, want *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Run %d/%d, reference %d/%d\n", got.Detected, got.Total, want.Detected, want.Total)
	g, w, n := got.Detections, want.Detections, 0
	for (len(g) > 0 || len(w) > 0) && n < 8 {
		switch {
		case len(w) == 0 || len(g) > 0 && compareDetections(g[0], w[0]) < 0:
			fmt.Fprintf(&b, "  Run only: %v at t=%d\n", g[0].Fault, g[0].Time)
			g, n = g[1:], n+1
		case len(g) == 0 || compareDetections(g[0], w[0]) > 0:
			fmt.Fprintf(&b, "  reference only: %v at t=%d\n", w[0].Fault, w[0].Time)
			w, n = w[1:], n+1
		default:
			g, w = g[1:], w[1:]
		}
	}
	return b.String()
}

// TestLanesMatchReference grades random DAGs and flip-flop circuits with
// fine delays, c17 and s27, on fault lists that include input, output
// marker, flip-flop and constant sites, both stuck values of one gate and
// duplicates, cut to 63, 64 and 127 faults so the last run holds one
// lane, under 1 and 3 workers.
func TestLanesMatchReference(t *testing.T) {
	var cases []laneCase
	for seed := int64(1); seed <= 6; seed++ {
		for _, sequential := range []bool{false, true} {
			c, stim := randomCase(t, seed, sequential, 40+int(seed)*10)
			c = withConstants(t, c)
			faults := everySite(c)
			// Duplicates, and both stuck values again, further down.
			faults = append(faults, faults[len(faults)/3], faults[1], faults[0])
			cases = append(cases, laneCase{fmt.Sprintf("seed%d-seq%v", seed, sequential), c, stim, faults})
		}
	}
	c17 := bench.MustC17()
	c17stim, err := vectors.Random(c17, vectors.RandomConfig{Vectors: 12, Period: 25, Activity: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, laneCase{"c17", c17, c17stim, everySite(c17)})
	s27 := bench.MustS27()
	s27stim, err := vectors.Clocked(s27, vectors.ClockedConfig{Clock: "G0", Cycles: 10, HalfPeriod: 20, Activity: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, laneCase{"s27", s27, s27stim, everySite(s27)})

	for _, lc := range cases {
		until := seq.Horizon(lc.c, lc.stim)
		for _, n := range []int{63, 64, 127, len(lc.faults)} {
			cut := lc
			cut.faults = nil
			for len(cut.faults) < n {
				cut.faults = append(cut.faults, lc.faults[:min(n-len(cut.faults), len(lc.faults))]...)
			}
			cut.name = fmt.Sprintf("%s/%d", lc.name, n)
			for _, workers := range []int{1, 3} {
				requireReference(t, cut, until, workers)
			}
		}
	}
}

// TestLanesMatchReferenceOnMultipliers grades E13's multiplier and the
// faultsim example's, whose collapsed lists leave two faults of the 8x8
// undetected.
func TestLanesMatchReferenceOnMultipliers(t *testing.T) {
	if testing.Short() {
		t.Skip("grades 672 faults serially")
	}
	for _, m := range []struct {
		bits   int
		stim   vectors.RandomConfig
		missed int
	}{
		{6, vectors.RandomConfig{Vectors: 30, Period: 60, Activity: 0.5, Seed: 47}, -1},
		{8, vectors.RandomConfig{Vectors: 60, Period: 80, Activity: 0.5, Seed: 5}, 2},
	} {
		c, err := gen.ArrayMultiplier(m.bits, gen.Unit)
		if err != nil {
			t.Fatal(err)
		}
		stim, err := vectors.Random(c, m.stim)
		if err != nil {
			t.Fatal(err)
		}
		lc := laneCase{fmt.Sprintf("mul%d", m.bits), c, stim, Collapse(c, Universe(c))}
		requireReference(t, lc, seq.Horizon(c, stim), 2)
		if m.missed >= 0 {
			res, err := Run(c, stim, seq.Horizon(c, stim), lc.faults, Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Total - res.Detected; got != m.missed {
				t.Errorf("%s: %d faults undetected, want %d", lc.name, got, m.missed)
			}
		}
	}
}

// FuzzFaultLanes holds Run to the serial reference on small random
// circuits, fault lists and worker counts.
func FuzzFaultLanes(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, seed%2 == 0, uint8(20+seed*7), uint8(1+seed%3))
	}
	f.Add(int64(-24), true, uint8(48), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, sequential bool, gates, workers uint8) {
		c, stim := randomCase(t, seed, sequential, 5+int(gates)%60)
		if uint64(seed)%3 == 0 {
			c = withConstants(t, c)
		}
		rng := rand.New(rand.NewSource(seed))
		all := everySite(c)
		faults := make([]Fault, rng.Intn(3*logic.Lanes))
		for i := range faults {
			faults[i] = all[rng.Intn(len(all))]
		}
		until := seq.Horizon(c, stim)
		if uint64(seed)%4 == 1 {
			until = circuit.Tick(rng.Int63n(int64(until) + 1))
		}
		requireReference(t, laneCase{"fuzz", c, stim, faults}, until, 1+int(workers)%4)
	})
}

// TestStrobesStopAtHorizon: a horizon inside the stimulus keeps only the
// vector boundaries before it, so no fault is reported after it.
func TestStrobesStopAtHorizon(t *testing.T) {
	c := bench.MustC17()
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 40, Activity: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const until = 45
	if st := strobeTimes(stim, until); !slices.IsSorted(st) || st[len(st)-1] != until {
		t.Fatalf("strobes %v: want ascending, ending at the horizon %d", st, until)
	}
	res, err := Run(c, stim, until, Universe(c), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Detections {
		if d.Time > until {
			t.Errorf("%v detected at t=%d, after the horizon %d", d.Fault, d.Time, until)
		}
	}
}

// TestStuckOutputMarker: a stuck Output marker reads its stuck value at
// every strobe, so stuck-at-1 is detected where the good output is 0.
func TestStuckOutputMarker(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	y := b.Output("y", a)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stim := &vectors.Stimulus{End: 20, Changes: []vectors.Change{
		{Time: 0, Input: a, Value: logic.One}, {Time: 20, Input: a, Value: logic.Zero}}}
	const until = 40
	res, err := Run(c, stim, until, []Fault{{y, logic.Zero}, {y, logic.One}}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []Detection{{Fault{y, logic.Zero}, 19}, {Fault{y, logic.One}, until}}
	if !slices.Equal(res.Detections, want) {
		t.Fatalf("detections %v, want %v", res.Detections, want)
	}
}
