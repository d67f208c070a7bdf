package fault

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

func TestUniverseSize(t *testing.T) {
	c := bench.MustC17()
	u := Universe(c)
	// c17: 5 inputs + 6 NANDs = 11 fault sites, 22 faults (outputs excluded).
	if len(u) != 22 {
		t.Fatalf("universe = %d faults, want 22", len(u))
	}
	for _, f := range u {
		if f.StuckAt != logic.Zero && f.StuckAt != logic.One {
			t.Fatalf("fault %v has non-binary stuck value", f)
		}
		k := c.Gate(f.Gate).Kind
		if k == circuit.Output || k == circuit.Const0 || k == circuit.Const1 {
			t.Fatalf("fault %v on excluded site %v", f, k)
		}
	}
}

func TestCollapseBufferChains(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	b1 := b.Gate(circuit.Buf, "b1", a)
	n1 := b.Gate(circuit.Not, "n1", b1)
	b.Output("y", n1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	u := Universe(c) // a, b1, n1: 6 faults
	if len(u) != 6 {
		t.Fatalf("universe = %d", len(u))
	}
	col := Collapse(c, u)
	// b1's faults collapse onto a (same polarity); n1's collapse onto a
	// (inverted polarity). Remaining: a/sa0 and a/sa1.
	if len(col) != 2 {
		t.Fatalf("collapsed = %d faults (%v), want 2", len(col), col)
	}
	for _, f := range col {
		if f.Gate != a {
			t.Fatalf("collapsed fault %v not on input a", f)
		}
	}
}

func TestFaultString(t *testing.T) {
	if (Fault{3, logic.Zero}).String() != "3/sa0" || (Fault{7, logic.One}).String() != "7/sa1" {
		t.Fatal("fault naming wrong")
	}
}

// TestGradersRejectBadFaults feeds both graders fault lists they cannot
// honour; each must refuse up front with a fault error rather than
// recover an index panic or grade an unknown stuck value as stuck-at-0.
func TestGradersRejectBadFaults(t *testing.T) {
	c := bench.MustC17()
	stim, err := vectors.Exhaustive(c, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]bool{make([]bool, len(c.Inputs))}
	last := circuit.GateID(c.NumGates() - 1)
	for _, tc := range []struct {
		name  string
		fault Fault
		ok    bool
	}{
		{"valid", Fault{last, logic.One}, true},
		{"gate past the end", Fault{circuit.GateID(c.NumGates()), logic.Zero}, false},
		{"negative gate", Fault{-1, logic.One}, false},
		{"stuck at X", Fault{last, logic.X}, false},
		{"stuck at Z", Fault{last, logic.Z}, false},
	} {
		faults := []Fault{{0, logic.Zero}, tc.fault}
		_, errRun := Run(c, stim, seq.Horizon(c, stim), faults, Config{Workers: 2})
		_, errPPSFP := GradeBitParallel(c, patterns, faults, 2)
		for grader, err := range map[string]error{"Run": errRun, "GradeBitParallel": errPPSFP} {
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s %s: %v", grader, tc.name, err)
			case !tc.ok && (err == nil || !strings.HasPrefix(err.Error(), "fault: ")):
				t.Errorf("%s %s: got %v, want a fault: error", grader, tc.name, err)
			}
		}
	}
}

// TestC17FullCoverage checks the textbook result: exhaustive vectors
// detect every collapsed fault of c17 (the circuit is fully testable).
func TestC17FullCoverage(t *testing.T) {
	c := bench.MustC17()
	stim, err := vectors.Exhaustive(c, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	faults := Collapse(c, Universe(c))
	res, err := Run(c, stim, seq.Horizon(c, stim), faults, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1.0 {
		t.Fatalf("c17 exhaustive coverage = %.3f (%d/%d), want 1.0",
			res.Coverage, res.Detected, res.Total)
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	c, err := gen.ArrayMultiplier(3, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 15, Period: 40, Activity: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faults := Collapse(c, Universe(c))
	until := seq.Horizon(c, stim)
	serial, err := Run(c, stim, until, faults, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(c, stim, until, faults, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Detected != parallel.Detected || serial.Total != parallel.Total {
		t.Fatalf("serial %d/%d vs parallel %d/%d",
			serial.Detected, serial.Total, parallel.Detected, parallel.Total)
	}
	if len(serial.Detections) != len(parallel.Detections) {
		t.Fatal("detection lists differ")
	}
	for i := range serial.Detections {
		if serial.Detections[i] != parallel.Detections[i] {
			t.Fatalf("detection %d differs: %+v vs %+v", i, serial.Detections[i], parallel.Detections[i])
		}
	}
}

func TestUndetectableRedundantFault(t *testing.T) {
	// y = a OR (a AND b): the AND gate is redundant logic; its sa0 is
	// undetectable (output equals a regardless).
	b := circuit.NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	and := b.Gate(circuit.And, "and", a, bb)
	or := b.Gate(circuit.Or, "or", a, and)
	b.Output("y", or)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Exhaustive(c, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, seq.Horizon(c, stim), []Fault{{and, logic.Zero}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 0 {
		t.Fatalf("redundant fault reported detected")
	}
}

func TestDetectionOnSequentialCircuit(t *testing.T) {
	c, err := gen.Counter(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 20, HalfPeriod: 30, Activity: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stuck the enable input high/low: en/sa0 freezes the counter, which
	// is detectable once it should have counted.
	en, _ := c.ByName("en")
	res, err := Run(c, stim, seq.Horizon(c, stim), []Fault{{en, logic.Zero}, {en, logic.One}}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The random initial en value is either 0 or 1; exactly one of the two
	// stuck faults disagrees with it and must be detected.
	if res.Detected < 1 {
		t.Fatalf("no enable fault detected (%d/%d)", res.Detected, res.Total)
	}
}

func TestCoverageGrowsWithVectors(t *testing.T) {
	c, err := gen.CLAAdder(8, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	faults := Collapse(c, Universe(c))
	cov := func(n int) float64 {
		stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: n, Period: 60, Activity: 0.5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, stim, seq.Horizon(c, stim), faults, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Coverage
	}
	few := cov(2)
	many := cov(40)
	if many < few {
		t.Fatalf("coverage shrank with more vectors: %f -> %f", few, many)
	}
	if many < 0.5 {
		t.Fatalf("40 random vectors cover only %.2f of the CLA adder", many)
	}
}
