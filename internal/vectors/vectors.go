// Package vectors generates test stimulus for simulation runs.
//
// The paper notes that the ISCAS benchmark circuits ship without test
// vectors and "are typically simulated using random vectors"; this package
// provides that random-vector methodology with a controllable activity
// level (the probability that an input toggles at each vector boundary),
// plus clocked sequences for sequential circuits and deterministic walking
// patterns. Activity is the knob behind the oblivious-versus-event-driven
// trade-off the paper describes, so it is a first-class parameter here.
package vectors

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// ChangeT is one primary-input transition over the value type of the run:
// a scalar logic.Value, or a complete 64-lane logic.Word in which lanes
// whose scalar stimulus does not change at Time carry their prior value.
type ChangeT[V any] struct {
	Time  circuit.Tick
	Input circuit.GateID
	Value V
}

// Change is the scalar transition.
type Change = ChangeT[logic.Value]

// Stimulus is a complete input schedule for one simulation run. Changes are
// sorted by (Time, Input) and include the initial assignment at time zero.
type Stimulus struct {
	Changes []Change
	// End is the stimulus horizon: the time by which all changes have been
	// applied. Simulations typically run until End plus a settling margin.
	End circuit.Tick
}

// Sort establishes the canonical (Time, Input) order on hand-built
// stimulus; the generators in this package already emit sorted changes.
func (s *Stimulus) Sort() { sortChanges(s.Changes) }

// sortChanges establishes the canonical (Time, Input) order.
func sortChanges[V any](cs []ChangeT[V]) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Time != cs[j].Time {
			return cs[i].Time < cs[j].Time
		}
		return cs[i].Input < cs[j].Input
	})
}

// validateChanges checks the rules every schedule obeys on either plane:
// only primary inputs of c are driven (which also bounds the gate ids), in
// (Time, Input) order, without duplicates, and not beyond end.
func validateChanges[V any](c *circuit.Circuit, cs []ChangeT[V], end circuit.Tick) error {
	isInput := make(map[circuit.GateID]bool, len(c.Inputs))
	for _, in := range c.Inputs {
		isInput[in] = true
	}
	for i, ch := range cs {
		if !isInput[ch.Input] {
			return fmt.Errorf("vectors: change %d drives gate %d which is not a primary input", i, ch.Input)
		}
		if i > 0 {
			prev := cs[i-1]
			if ch.Time < prev.Time || (ch.Time == prev.Time && ch.Input < prev.Input) {
				return fmt.Errorf("vectors: changes out of order at index %d", i)
			}
			if ch.Time == prev.Time && ch.Input == prev.Input {
				return fmt.Errorf("vectors: duplicate change for input %d at time %d", ch.Input, ch.Time)
			}
		}
		if ch.Time > end {
			return fmt.Errorf("vectors: change %d at time %d beyond End %d", i, ch.Time, end)
		}
	}
	return nil
}

// Validate checks that the stimulus only drives primary inputs of c with
// valid values and is properly ordered.
func (s *Stimulus) Validate(c *circuit.Circuit) error {
	for i, ch := range s.Changes {
		if !ch.Value.Valid() {
			return fmt.Errorf("vectors: change %d has invalid value", i)
		}
	}
	return validateChanges(c, s.Changes, s.End)
}

// Projected validates the stimulus against c and returns its changes with
// every value mapped into sys — the schedule a scalar engine consumes.
func (s *Stimulus) Projected(c *circuit.Circuit, sys logic.System) ([]Change, error) {
	if err := s.Validate(c); err != nil {
		return nil, err
	}
	out := make([]Change, len(s.Changes))
	for i, ch := range s.Changes {
		out[i] = Change{ch.Time, ch.Input, sys.Project(ch.Value)}
	}
	return out, nil
}

// NumVectors counts the distinct change times (vector boundaries).
func (s *Stimulus) NumVectors() int { return numVectors(s.Changes) }

func numVectors[V any](cs []ChangeT[V]) int {
	n := 0
	var last circuit.Tick
	for i, ch := range cs {
		if i == 0 || ch.Time != last {
			n++
			last = ch.Time
		}
	}
	return n
}

// RandomConfig parameterizes Random stimulus generation.
type RandomConfig struct {
	// Vectors is the number of vector boundaries after the initial
	// assignment.
	Vectors int
	// Period is the spacing between vector boundaries in ticks; it is the
	// paper's "timing granularity of the stimulus" knob. Must be >= 1.
	Period circuit.Tick
	// Activity is the probability in [0,1] that each input toggles at each
	// boundary. 1.0 re-randomizes every input every vector; small values
	// model mostly-idle circuits.
	Activity float64
	// System constrains generated values to the given value system's
	// driven levels (always 0/1; the system only matters for how engines
	// initialize undriven state).
	Seed int64
}

// Random generates random stimulus for the inputs of c.
//
// At time 0 every input receives a random 0/1 assignment; at each
// subsequent boundary each input toggles with probability Activity.
func Random(c *circuit.Circuit, cfg RandomConfig) (*Stimulus, error) {
	if cfg.Period == 0 {
		return nil, fmt.Errorf("vectors: Random: Period must be >= 1")
	}
	if cfg.Vectors < 0 {
		return nil, fmt.Errorf("vectors: Random: negative vector count")
	}
	if cfg.Activity < 0 || cfg.Activity > 1 {
		return nil, fmt.Errorf("vectors: Random: Activity %f outside [0,1]", cfg.Activity)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Stimulus{End: circuit.Tick(cfg.Vectors) * cfg.Period}
	cur := make(map[circuit.GateID]logic.Value, len(c.Inputs))
	for _, in := range c.Inputs {
		v := logic.FromBool(rng.Intn(2) == 1)
		cur[in] = v
		s.Changes = append(s.Changes, Change{Time: 0, Input: in, Value: v})
	}
	for k := 1; k <= cfg.Vectors; k++ {
		t := circuit.Tick(k) * cfg.Period
		for _, in := range c.Inputs {
			if rng.Float64() < cfg.Activity {
				nv := logic.Not(cur[in])
				cur[in] = nv
				s.Changes = append(s.Changes, Change{Time: t, Input: in, Value: nv})
			}
		}
	}
	sortChanges(s.Changes)
	return s, nil
}

// ClockedConfig parameterizes Clocked stimulus generation.
type ClockedConfig struct {
	// Clock names the clock input gate.
	Clock string
	// Cycles is the number of full clock cycles to generate.
	Cycles int
	// HalfPeriod is the half-period of the clock in ticks (>= 1).
	HalfPeriod circuit.Tick
	// Activity is the per-cycle toggle probability of each non-clock input;
	// data inputs change just after the falling edge, safely away from the
	// sampling (rising) edge.
	Activity float64
	Seed     int64
}

// Clocked generates a free-running clock on the named input plus random
// data on the remaining inputs, the standard way to drive the sequential
// (ISCAS-89-style) benchmarks.
func Clocked(c *circuit.Circuit, cfg ClockedConfig) (*Stimulus, error) {
	if cfg.HalfPeriod == 0 {
		return nil, fmt.Errorf("vectors: Clocked: HalfPeriod must be >= 1")
	}
	if cfg.Activity < 0 || cfg.Activity > 1 {
		return nil, fmt.Errorf("vectors: Clocked: Activity %f outside [0,1]", cfg.Activity)
	}
	clk, ok := c.ByName(cfg.Clock)
	if !ok {
		return nil, fmt.Errorf("vectors: Clocked: no input named %q", cfg.Clock)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Stimulus{End: circuit.Tick(cfg.Cycles) * 2 * cfg.HalfPeriod}
	cur := make(map[circuit.GateID]logic.Value, len(c.Inputs))
	isClk := false
	for _, in := range c.Inputs {
		if in == clk {
			isClk = true
			cur[in] = logic.Zero
			s.Changes = append(s.Changes, Change{Time: 0, Input: in, Value: logic.Zero})
			continue
		}
		v := logic.FromBool(rng.Intn(2) == 1)
		cur[in] = v
		s.Changes = append(s.Changes, Change{Time: 0, Input: in, Value: v})
	}
	if !isClk {
		return nil, fmt.Errorf("vectors: Clocked: gate %q is not a primary input", cfg.Clock)
	}
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		base := circuit.Tick(cycle) * 2 * cfg.HalfPeriod
		rise := base + cfg.HalfPeriod
		fall := base + 2*cfg.HalfPeriod
		s.Changes = append(s.Changes,
			Change{Time: rise, Input: clk, Value: logic.One},
			Change{Time: fall, Input: clk, Value: logic.Zero},
		)
		if fall >= s.End {
			continue
		}
		// New data lands right after the falling edge.
		for _, in := range c.Inputs {
			if in == clk {
				continue
			}
			if rng.Float64() < cfg.Activity {
				nv := logic.Not(cur[in])
				cur[in] = nv
				s.Changes = append(s.Changes, Change{Time: fall, Input: in, Value: nv})
			}
		}
	}
	sortChanges(s.Changes)
	return s, nil
}

// WalkingOnes generates the classic walking-ones pattern: all inputs start
// at 0 and a single 1 marches across the inputs, one position per period.
// It produces low, perfectly regular activity, useful as a partitioning and
// debug workload.
func WalkingOnes(c *circuit.Circuit, period circuit.Tick) (*Stimulus, error) {
	if period == 0 {
		return nil, fmt.Errorf("vectors: WalkingOnes: period must be >= 1")
	}
	n := len(c.Inputs)
	s := &Stimulus{End: circuit.Tick(n+1) * period}
	for _, in := range c.Inputs {
		s.Changes = append(s.Changes, Change{Time: 0, Input: in, Value: logic.Zero})
	}
	for i, in := range c.Inputs {
		on := circuit.Tick(i+1) * period
		s.Changes = append(s.Changes, Change{Time: on, Input: in, Value: logic.One})
		if off := on + period; off <= s.End {
			s.Changes = append(s.Changes, Change{Time: off, Input: in, Value: logic.Zero})
		}
	}
	sortChanges(s.Changes)
	// The walking bit turning off coincides with the next bit turning on;
	// dedupe is unnecessary because they target different inputs, but a
	// final input's off event may fall exactly at End, which is fine.
	return s, nil
}

// Exhaustive enumerates all 2^n input combinations in Gray-code order (one
// input change per step), for circuits with few inputs. It errors beyond
// maxInputs to avoid accidental explosion.
func Exhaustive(c *circuit.Circuit, period circuit.Tick, maxInputs int) (*Stimulus, error) {
	if period == 0 {
		return nil, fmt.Errorf("vectors: Exhaustive: period must be >= 1")
	}
	n := len(c.Inputs)
	if n > maxInputs {
		return nil, fmt.Errorf("vectors: Exhaustive: %d inputs exceeds limit %d", n, maxInputs)
	}
	total := 1 << n
	s := &Stimulus{End: circuit.Tick(total) * period}
	for _, in := range c.Inputs {
		s.Changes = append(s.Changes, Change{Time: 0, Input: in, Value: logic.Zero})
	}
	for k := 1; k < total; k++ {
		// Gray code: bit that flips between k-1 and k.
		bit := 0
		for v := (k ^ (k >> 1)) ^ ((k - 1) ^ ((k - 1) >> 1)); v > 1; v >>= 1 {
			bit++
		}
		in := c.Inputs[bit]
		t := circuit.Tick(k) * period
		// Value = bit of gray(k).
		g := k ^ (k >> 1)
		v := logic.FromBool(g&(1<<bit) != 0)
		s.Changes = append(s.Changes, Change{Time: t, Input: in, Value: v})
	}
	sortChanges(s.Changes)
	return s, nil
}
