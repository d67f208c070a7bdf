package fault

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/simtest"
	"repro/internal/vectors"
)

// randomPatterns draws n random input assignments.
func randomPatterns(c *circuit.Circuit, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]bool, n)
	for k := range out {
		out[k] = make([]bool, len(c.Inputs))
		for i := range out[k] {
			out[k][i] = rng.Intn(2) == 1
		}
	}
	return out
}

// patternsToStimulus converts the same patterns into event-driven stimulus
// (one vector per pattern, long settle period).
func patternsToStimulus(c *circuit.Circuit, patterns [][]bool, period circuit.Tick) *vectors.Stimulus {
	s := &vectors.Stimulus{End: circuit.Tick(len(patterns)-1) * period}
	for k, pat := range patterns {
		t := circuit.Tick(k) * period
		for i, in := range c.Inputs {
			s.Changes = append(s.Changes, vectors.Change{Time: t, Input: in, Value: logic.FromBool(pat[i])})
		}
	}
	s.Sort()
	// Event-driven stimulus dedups repeated values implicitly (apply only
	// if changed), so identical consecutive assignments are harmless, but
	// Validate rejects exact duplicates at the same (time, input); these
	// cannot occur here.
	return s
}

// TestPPSFPMatchesEventDrivenGrading is the central cross-check: the
// PPSFP grader and the event-driven strobe-based grader must agree fault
// for fault, and on each fault's first detecting pattern, on the same
// patterns: pattern counts on both sides of the 64-lane batch boundary,
// one worker and several.
func TestPPSFPMatchesEventDrivenGrading(t *testing.T) {
	const period = 200
	dag := func(seed int64) func() (*circuit.Circuit, error) {
		return func() (*circuit.Circuit, error) {
			return gen.RandomDAG(gen.RandomConfig{Gates: 120, Inputs: 10, Outputs: 6, Seed: seed})
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (*circuit.Circuit, error)
	}{
		{"c17", func() (*circuit.Circuit, error) { return bench.MustC17(), nil }},
		{"cla6", func() (*circuit.Circuit, error) { return gen.CLAAdder(6, gen.Unit) }},
		{"mul4", func() (*circuit.Circuit, error) { return gen.ArrayMultiplier(4, gen.Unit) }},
		{"dag-3", dag(3)},
		{"dag-8", dag(8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			faults := Collapse(c, Universe(c))
			for _, n := range []int{1, 63, 64, 65, 130} {
				patterns := randomPatterns(c, n, int64(n))
				stim := patternsToStimulus(c, patterns, period)
				until := seq.Horizon(c, stim)
				ev, err := Run(c, stim, until, faults, Config{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				// A strobe one tick before boundary k+1, or the horizon for
				// the last pattern, observes pattern k settled.
				want := map[Fault]circuit.Tick{}
				for _, d := range ev.Detections {
					k := circuit.Tick(n - 1)
					if d.Time < until {
						k = (d.Time+1)/period - 1
					}
					want[d.Fault] = k
				}
				for _, workers := range []int{1, 3} {
					pp, err := GradeBitParallel(c, patterns, faults, workers)
					if err != nil {
						t.Fatal(err)
					}
					if pp.Detected != ev.Detected {
						t.Errorf("%d patterns, %d workers: PPSFP detected %d, event-driven %d",
							n, workers, pp.Detected, ev.Detected)
					}
					for _, d := range pp.Detections {
						if k, ok := want[d.Fault]; !ok || k != d.Time {
							t.Errorf("%d patterns, %d workers: fault %v first detected by pattern %d, event-driven %d (found %v)",
								n, workers, d.Fault, d.Time, k, ok)
						}
					}
				}
			}
		})
	}
}

func TestPPSFPC17Exhaustive(t *testing.T) {
	c := bench.MustC17()
	faults := Collapse(c, Universe(c))
	// All 32 input combinations as patterns.
	var patterns [][]bool
	for v := 0; v < 32; v++ {
		pat := make([]bool, len(c.Inputs))
		for i := range pat {
			pat[i] = v&(1<<i) != 0
		}
		patterns = append(patterns, pat)
	}
	res, err := GradeBitParallel(c, patterns, faults, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1.0 {
		t.Fatalf("c17 exhaustive PPSFP coverage = %.3f", res.Coverage)
	}
	// First-detection pattern indices must be within range and sorted.
	last := circuit.Tick(0)
	for _, d := range res.Detections {
		if d.Time >= circuit.Tick(len(patterns)) {
			t.Fatalf("detection pattern index %d out of range", d.Time)
		}
		if d.Time < last {
			t.Fatal("detections not sorted by pattern")
		}
		last = d.Time
	}
}

func TestPPSFPFaultDropping(t *testing.T) {
	// With more than 64 patterns the grader runs multiple passes; coverage
	// must be monotone in the pattern count and the result identical to a
	// single big campaign's subset.
	c, err := gen.ArrayMultiplier(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	faults := Collapse(c, Universe(c))
	patterns := randomPatterns(c, 150, 11)
	few, err := GradeBitParallel(c, patterns[:32], faults, 3)
	if err != nil {
		t.Fatal(err)
	}
	many, err := GradeBitParallel(c, patterns, faults, 3)
	if err != nil {
		t.Fatal(err)
	}
	if many.Detected < few.Detected {
		t.Fatalf("coverage shrank with more patterns: %d -> %d", few.Detected, many.Detected)
	}
	// Every fault detected in the short campaign is detected (at the same
	// first pattern) in the long one.
	first := map[Fault]circuit.Tick{}
	for _, d := range many.Detections {
		first[d.Fault] = d.Time
	}
	for _, d := range few.Detections {
		at, ok := first[d.Fault]
		if !ok || at != d.Time {
			t.Fatalf("fault %v first-detection changed: %d vs %v", d.Fault, d.Time, at)
		}
	}
}

func TestPPSFPRejectsSequential(t *testing.T) {
	c, err := gen.Counter(3, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GradeBitParallel(c, randomPatterns(c, 8, 1), Universe(c), 1); err == nil {
		t.Fatal("sequential circuit accepted by PPSFP")
	}
}

func TestPPSFPInputFault(t *testing.T) {
	// A stuck input must be detectable and must override the pattern.
	b := circuit.NewBuilder()
	a := b.Input("a")
	bb := b.Input("b")
	x := b.Gate(Xor2, "x", a, bb)
	b.Output("y", x)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]bool{{false, false}, {true, false}, {false, true}, {true, true}}
	res, err := GradeBitParallel(c, patterns, []Fault{{a, logic.Zero}, {a, logic.One}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 2 {
		t.Fatalf("input faults detected = %d, want 2", res.Detected)
	}
}

// settleBatch packs patterns (at most one batch) onto a fresh plane and
// settles it the way the grader does: the good circuit first, then, when
// f is non-nil, the gates below f's net with that net stuck.
func settleBatch(t *testing.T, c *circuit.Circuit, patterns [][]bool, f *Fault) []logic.Word {
	t.Helper()
	order, err := sweepOrder(c)
	if err != nil {
		t.Fatal(err)
	}
	val, prevClk := circuit.InitStateWide(c, logic.TwoValued)
	pack(c, patterns, val)
	sweep(c, order, val, prevClk)
	if f != nil {
		from := 0 // a source's sweep covers the whole order
		for i, g := range order {
			if g == f.Gate {
				from = i + 1
			}
		}
		val[f.Gate] = logic.Splat(f.StuckAt)
		sweep(c, order[from:], val, prevClk)
	}
	return val
}

// TestPPSFPLanesMatchScalar cross-validates every gate in all 64 lanes of
// one sweep against the event-driven reference, one pattern at a time.
func TestPPSFPLanesMatchScalar(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 300, Inputs: 12, Outputs: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	patterns := randomPatterns(c, logic.Lanes, 5)
	val := settleBatch(t, c, patterns, nil)
	for k, pat := range patterns {
		assign := map[string]logic.Value{}
		for i, in := range c.Inputs {
			assign[c.Gate(in).Name] = logic.FromBool(pat[i])
		}
		want, err := simtest.Settle(c, assign)
		if err != nil {
			t.Fatal(err)
		}
		for g := range c.Gates {
			if got := val[g].Get(k); got != want[g] {
				t.Fatalf("pattern %d gate %d (%s): sweep %v, scalar %v", k, g, c.Gates[g].Name, got, want[g])
			}
		}
	}
}

// TestPPSFPMultiplierLanes computes 64 products in one sweep and checks
// them against Go arithmetic.
func TestPPSFPMultiplierLanes(t *testing.T) {
	const width = 6
	c, err := gen.ArrayMultiplier(width, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var a, b [logic.Lanes]uint64
	patterns := make([][]bool, logic.Lanes)
	for k := range patterns {
		a[k], b[k] = rng.Uint64()&(1<<width-1), rng.Uint64()&(1<<width-1)
		patterns[k] = make([]bool, len(c.Inputs))
		for i, in := range c.Inputs {
			name := c.Gate(in).Name
			bit, err := strconv.Atoi(name[1:])
			if err != nil {
				t.Fatal(err)
			}
			bus := a[k]
			if name[0] == 'b' {
				bus = b[k]
			}
			patterns[k][i] = bus&(1<<bit) != 0
		}
	}
	val := settleBatch(t, c, patterns, nil)
	for k := range patterns {
		var p uint64
		for i := 0; i < 2*width; i++ {
			o, ok := c.ByName("p" + strconv.Itoa(i))
			if !ok {
				t.Fatalf("no output p%d", i)
			}
			if val[o].Get(k) == logic.One {
				p |= 1 << i
			}
		}
		if want := a[k] * b[k]; p != want {
			t.Fatalf("lane %d: %d*%d = %d, want %d", k, a[k], b[k], p, want)
		}
	}
}

// TestPPSFPStuckNetOverridesPattern pins a mid-circuit net: every lane
// downstream sees the stuck value whatever the pattern, where the good
// circuit sees the patterns. A stuck constant must not outlive its own
// fault either: graded first on the same worker, it would otherwise move
// the second fault's first detection.
func TestPPSFPStuckNetOverridesPattern(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	n := b.Gate(circuit.Not, "n", a)
	y := b.Output("y", n)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([][]bool, logic.Lanes)
	for k := range patterns {
		patterns[k] = []bool{k < 4}
	}
	if ones, _ := settleBatch(t, c, patterns, &Fault{n, logic.Zero})[y].Bits(); ones != 0 {
		t.Fatalf("stuck net leaked: y = %x", ones)
	}
	if ones, _ := settleBatch(t, c, patterns, nil)[y].Bits(); ones != ^uint64(0x0F) {
		t.Fatalf("good circuit: y = %x", ones)
	}

	b = circuit.NewBuilder()
	a = b.Input("a")
	one := b.Const("one", logic.One)
	b.Output("y", b.Gate(circuit.And, "and", a, one))
	if c, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	res, err := GradeBitParallel(c, [][]bool{{false}, {true}}, []Fault{{one, logic.Zero}, {a, logic.One}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Detection{{Fault{a, logic.One}, 0}, {Fault{one, logic.Zero}, 1}}
	if !reflect.DeepEqual(res.Detections, want) {
		t.Fatalf("detections = %v, want %v", res.Detections, want)
	}
}

// TestPPSFPRejectsNonTwoValued: gates whose values leave {0, 1} cannot be
// graded on the two-valued sweep.
func TestPPSFPRejectsNonTwoValued(t *testing.T) {
	for _, kind := range []circuit.Kind{circuit.Tri, circuit.ConstX} {
		b := circuit.NewBuilder()
		a := b.Input("a")
		en := b.Input("en")
		var g circuit.GateID
		if kind == circuit.Tri {
			g = b.Gate(circuit.Tri, "t", en, a)
		} else {
			g = b.Gate(circuit.And, "g", a, b.Const("x", logic.X))
		}
		b.Output("y", g)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = GradeBitParallel(c, [][]bool{{false, true}}, Universe(c), 1)
		if err == nil || !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("%v circuit: got %v, want a fault: error", kind, err)
		}
	}
}

// TestPPSFPValidatesEveryPattern: a wrong-length pattern is refused even
// where no batch would reach it — after every fault is dropped, or with no
// faults at all — while any count of well-formed patterns is accepted.
func TestPPSFPValidatesEveryPattern(t *testing.T) {
	c := bench.MustC17()
	faults := Collapse(c, Universe(c))
	patterns := make([][]bool, 71)
	for k := range patterns {
		patterns[k] = make([]bool, len(c.Inputs))
		for i := range patterns[k] {
			patterns[k][i] = k&(1<<i) != 0 // batch 0 holds all 32 assignments
		}
	}
	if res, err := GradeBitParallel(c, patterns, faults, 2); err != nil || res.Coverage != 1 {
		t.Fatalf("71 patterns: coverage %v, err %v", res, err)
	}
	patterns[70] = patterns[70][1:]
	for _, fs := range [][]Fault{faults, nil} {
		_, err := GradeBitParallel(c, patterns, fs, 2)
		if err == nil || !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("%d faults, short pattern 70: got %v, want a fault: error", len(fs), err)
		}
	}
}

// Xor2 aliases the gate kind for readability in the test above.
const Xor2 = circuit.Xor
