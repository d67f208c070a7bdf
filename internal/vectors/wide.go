package vectors

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// WideChange is one primary-input transition of a wide (64-lane) run: at
// Time the input's packed word becomes Value. Applying wide changes in
// order reproduces every lane's scalar input waveform exactly.
type WideChange = ChangeT[logic.Word]

// WideStimulus is a complete 64-lane input schedule: Lanes independent
// scalar stimuli packed into word-valued changes sorted by (Time, Input).
type WideStimulus struct {
	Changes []WideChange
	// End is the horizon: the maximum End of the packed lanes.
	End circuit.Tick
	// Lanes is the number of meaningful lanes; higher lanes hold their
	// initial value for the whole run.
	Lanes int
}

// Validate checks the wide schedule by the rules Stimulus.Validate applies
// to a scalar one; every word is a valid value, so there is no value check.
func (s *WideStimulus) Validate(c *circuit.Circuit) error {
	return validateChanges(c, s.Changes, s.End)
}

// NumVectors counts the distinct change times (vector boundaries) of the
// wide schedule. The total vector count of a wide run is NumVectors*Lanes.
func (s *WideStimulus) NumVectors() int { return numVectors(s.Changes) }

// Pack merges up to logic.Lanes scalar stimuli into one wide stimulus,
// assigning stims[k] to lane k. Values are projected through sys when
// packed, and lanes not yet driven at a merge point hold the projected
// initial input value — exactly the value a scalar engine running lane k
// under sys would see, which makes wide runs lane-exact by construction.
func Pack(c *circuit.Circuit, stims []*Stimulus, sys logic.System) (*WideStimulus, error) {
	if len(stims) == 0 {
		return nil, fmt.Errorf("vectors: Pack: no stimuli")
	}
	if len(stims) > logic.Lanes {
		return nil, fmt.Errorf("vectors: Pack: %d stimuli exceed %d lanes", len(stims), logic.Lanes)
	}
	out := &WideStimulus{Lanes: len(stims)}
	for k, s := range stims {
		if err := s.Validate(c); err != nil {
			return nil, fmt.Errorf("vectors: Pack: lane %d: %w", k, err)
		}
		if s.End > out.End {
			out.End = s.End
		}
	}
	// Group each lane's (sorted) changes by input once, then merge the
	// per-input lane streams in time order, maintaining the packed word.
	grouped := make(map[circuit.GateID][][]Change, len(c.Inputs))
	for _, in := range c.Inputs {
		grouped[in] = make([][]Change, len(stims))
	}
	for k, s := range stims {
		for _, ch := range s.Changes {
			grouped[ch.Input][k] = append(grouped[ch.Input][k], ch)
		}
	}
	init := logic.Splat(sys.Project(circuit.InitialValue(circuit.Input)))
	for _, in := range c.Inputs {
		perLane := grouped[in]
		cur := init
		idx := make([]int, len(stims))
		for {
			// Next merge time: minimum pending change time across lanes.
			t := circuit.Tick(0)
			found := false
			for k := range stims {
				if idx[k] < len(perLane[k]) {
					if ct := perLane[k][idx[k]].Time; !found || ct < t {
						t, found = ct, true
					}
				}
			}
			if !found {
				break
			}
			next := cur
			for k := range stims {
				for idx[k] < len(perLane[k]) && perLane[k][idx[k]].Time == t {
					next = next.Set(k, sys.Project(perLane[k][idx[k]].Value))
					idx[k]++
				}
			}
			if next != cur || t == 0 {
				cur = next
				out.Changes = append(out.Changes, WideChange{Time: t, Input: in, Value: cur})
			}
		}
	}
	sortChanges(out.Changes)
	return out, nil
}

// RandomBatch generates lanes independent Random stimuli (lane k seeded
// with cfg.Seed+k) and packs them. It returns both the wide stimulus and
// the scalar per-lane stimuli, so conformance suites can replay each lane
// on a scalar engine.
func RandomBatch(c *circuit.Circuit, cfg RandomConfig, lanes int, sys logic.System) (*WideStimulus, []*Stimulus, error) {
	if lanes < 1 || lanes > logic.Lanes {
		return nil, nil, fmt.Errorf("vectors: RandomBatch: lane count %d outside [1,%d]", lanes, logic.Lanes)
	}
	stims := make([]*Stimulus, lanes)
	for k := range stims {
		lcfg := cfg
		lcfg.Seed = cfg.Seed + int64(k)
		s, err := Random(c, lcfg)
		if err != nil {
			return nil, nil, err
		}
		stims[k] = s
	}
	ws, err := Pack(c, stims, sys)
	if err != nil {
		return nil, nil, err
	}
	return ws, stims, nil
}

// ClockedBatch generates lanes independent Clocked stimuli (lane k seeded
// with cfg.Seed+k, sharing the clock waveform) and packs them.
func ClockedBatch(c *circuit.Circuit, cfg ClockedConfig, lanes int, sys logic.System) (*WideStimulus, []*Stimulus, error) {
	if lanes < 1 || lanes > logic.Lanes {
		return nil, nil, fmt.Errorf("vectors: ClockedBatch: lane count %d outside [1,%d]", lanes, logic.Lanes)
	}
	stims := make([]*Stimulus, lanes)
	for k := range stims {
		lcfg := cfg
		lcfg.Seed = cfg.Seed + int64(k)
		s, err := Clocked(c, lcfg)
		if err != nil {
			return nil, nil, err
		}
		stims[k] = s
	}
	ws, err := Pack(c, stims, sys)
	if err != nil {
		return nil, nil, err
	}
	return ws, stims, nil
}

// Splat packs the same scalar stimulus into every one of lanes lanes, the
// degenerate batch used to cross-check wide engines against scalar runs.
func Splat(c *circuit.Circuit, s *Stimulus, lanes int, sys logic.System) (*WideStimulus, error) {
	stims := make([]*Stimulus, lanes)
	for k := range stims {
		stims[k] = s
	}
	return Pack(c, stims, sys)
}
