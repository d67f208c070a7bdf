// Package opt is the netlist optimizer: a pipeline of remap-preserving
// transformation passes over the immutable circuit.Circuit, run before
// partitioning so the parallel engines simulate a smaller, shallower
// netlist. The classical pre-pass transforms are here — constant
// propagation, structural hashing, buffer/double-inverter cleanup, and
// dead-gate elimination — plus an opt-in fanin-tree flattening pass that
// trades transient (glitch) accuracy for levelized depth.
//
// # Exactness contract
//
// Every pass in DefaultPasses preserves the simulated waveform of the
// primary outputs bit-exactly on every engine, and the state evolution of
// every surviving sequential element, for both the scalar 9-valued and the
// wide 4-valued planes. Three of the passes (constprop, hash, dce) are
// stronger: every surviving net's full event trajectory is unchanged.
// Buffer cleanup re-times a value through an absorbed buffer, which can
// interchange U and X on the absorbed net itself; that class of difference
// is closed under every gate table and collapses at the To01 boundaries
// (Output gates, DFF/DLatch sampling), so primary outputs and sequential
// state remain bit-identical.
//
// Two passes are deliberately NOT in DefaultPasses because they are weaker
// than the contract. "invpair" (double-inverter collapse) is bit-exact
// under the 4- and 9-valued systems, whose nets boot as U/X (Not(U)=U, so
// the removed inverter never fires at the t=0 sweep), but the 2-valued
// system boots every net at Zero and the removed inverter's real
// Not(0)=1 warm-up pulse from the initial full-dirty sweep is observable
// at primary outputs. "balance" preserves only settled (cycle-accurate)
// behavior; see balance.go.
//
// Each pass records a GateID substitution, and Optimize composes them into
// a Remap so recorded waveforms, golden fixtures, stimuli, and VCD names
// expressed against the original netlist still resolve after optimization.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// DefaultPasses is the exact pipeline: constant propagation first (it
// exposes structural duplicates), then hashing, buffer cleanup, and dead
// gate elimination. Optimize iterates the whole pipeline to a fixpoint.
var DefaultPasses = []string{"constprop", "hash", "bufclean", "dce"}

// AllPasses lists every registered pass name, DefaultPasses order first.
var AllPasses = []string{"constprop", "hash", "bufclean", "dce", "invpair", "balance"}

// Options configures an optimization run.
type Options struct {
	// Passes names the passes to run, in order, per round; nil means
	// DefaultPasses. See AllPasses for the registry.
	Passes []string
}

// maxRounds bounds the pipeline fixpoint iteration.
const maxRounds = 10

// Stats reports what an optimization run did.
type Stats struct {
	GatesBefore  int `json:"gates_before"`
	GatesAfter   int `json:"gates_after"`
	GatesRemoved int `json:"gates_removed"` // GatesBefore - GatesAfter
	GatesHashed  int `json:"gates_hashed"`  // merged by structural hashing
	ConstFolds   int `json:"const_folds"`   // constant-propagation rewrites
	BufsCleaned  int `json:"bufs_cleaned"`  // absorbed sole-fanout buffers
	InvPairs     int `json:"inv_pairs"`     // collapsed double inverters (opt-in)
	DeadRemoved  int `json:"dead_removed"`  // gates outside the support cone
	Flattened    int `json:"flattened"`     // fanin subtrees inlined by balance
	LevelsBefore int `json:"levels_before"` // levelized depth before
	LevelsAfter  int `json:"levels_after"`  // levelized depth after
	Rounds       int `json:"rounds"`        // pipeline rounds until fixpoint
}

// Result is an optimized circuit plus the identity bridge back to the
// original netlist.
type Result struct {
	Circuit *circuit.Circuit
	Remap   Remap
	Stats   Stats
}

// passFn mutates the work representation and reports whether it changed
// anything.
type passFn func(w *work) bool

var passRegistry = map[string]passFn{
	"constprop": passConstProp,
	"hash":      passHash,
	"bufclean":  passBufClean,
	"dce":       passDCE,
	"invpair":   passInvPair,
	"balance":   passBalance,
}

// ParsePasses validates a comma-separated pass list ("" means the default
// pipeline) into a pass-name slice for Options.Passes.
func ParsePasses(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	names := strings.Split(s, ",")
	for _, n := range names {
		if _, ok := passRegistry[n]; !ok {
			return nil, fmt.Errorf("opt: unknown pass %q (have %v)", n, AllPasses)
		}
	}
	return names, nil
}

// Optimize runs the pass pipeline over c and returns the optimized
// circuit, the GateID remap, and the run's statistics. The input circuit
// is never mutated.
func Optimize(c *circuit.Circuit, o Options) (*Result, error) {
	passes := o.Passes
	if passes == nil {
		passes = DefaultPasses
	}
	fns := make([]passFn, len(passes))
	for i, name := range passes {
		fn, ok := passRegistry[name]
		if !ok {
			return nil, fmt.Errorf("opt: unknown pass %q (have %v)", name, AllPasses)
		}
		fns[i] = fn
	}
	w := newWork(c)
	st := &w.stats
	st.GatesBefore = len(c.Kinds)
	st.LevelsBefore = len(c.Levels)

	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fn := range fns {
			if fn(w) {
				changed = true
			}
		}
		st.Rounds = round + 1
		if !changed {
			break
		}
	}

	oc, err := w.circuit(c)
	if err != nil {
		return nil, fmt.Errorf("opt: optimized netlist invalid: %w", err)
	}
	st.GatesAfter = len(oc.Kinds)
	st.GatesRemoved = st.GatesBefore - st.GatesAfter
	st.LevelsAfter = len(oc.Levels)
	return &Result{
		Circuit: oc,
		Remap:   Remap{Fwd: w.fwd, Back: w.back},
		Stats:   *st,
	}, nil
}

// Remap is the GateID bridge between the original and optimized netlists.
type Remap struct {
	// Fwd maps original GateIDs to optimized ones; -1 marks a gate that was
	// eliminated without a surviving representative (dead logic). A gate
	// merged into a structural twin maps to the twin.
	Fwd []circuit.GateID
	// Back maps optimized GateIDs to the original gate each survivor
	// descends from (the representative's original ID).
	Back []circuit.GateID
}

// Gate maps one original GateID forward; ok is false for eliminated gates.
func (r Remap) Gate(g circuit.GateID) (circuit.GateID, bool) {
	if int(g) < 0 || int(g) >= len(r.Fwd) || r.Fwd[g] < 0 {
		return -1, false
	}
	return r.Fwd[g], true
}

// Stimulus rewrites a stimulus expressed against the original netlist.
// Primary inputs always survive optimization, so this cannot fail on a
// stimulus that validated against the original circuit.
func (r Remap) Stimulus(s *vectors.Stimulus) (*vectors.Stimulus, error) {
	out := &vectors.Stimulus{Changes: make([]vectors.Change, len(s.Changes)), End: s.End}
	for i, ch := range s.Changes {
		ng, ok := r.Gate(ch.Input)
		if !ok {
			return nil, fmt.Errorf("opt: stimulus input %d was eliminated", ch.Input)
		}
		out.Changes[i] = vectors.Change{Time: ch.Time, Input: ng, Value: ch.Value}
	}
	out.Sort()
	return out, nil
}

// WaveformBack rewrites a waveform recorded on the optimized netlist into
// original-netlist GateIDs, re-sorting into canonical (Time, Gate) order,
// so it compares directly against an unoptimized run's recording.
func (r Remap) WaveformBack(wf trace.Waveform) trace.Waveform {
	out := make(trace.Waveform, len(wf))
	for i, s := range wf {
		g := s.Gate
		if int(g) >= 0 && int(g) < len(r.Back) {
			g = r.Back[s.Gate]
		}
		out[i] = trace.Sample{Time: s.Time, Gate: g, Value: s.Value}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Gate < out[j].Gate
	})
	return out
}
