package trace

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// WideSample is one committed whole-word change on a watched net: at Time
// at least one lane of Gate changed to the corresponding lane of Value.
// Unchanged lanes carry their previous value, so the word is always the
// complete 64-lane state of the net at Time.
type WideSample = SampleT[logic.Word]

// WideWaveform is a canonical wide change history sorted by (Time, Gate).
type WideWaveform []WideSample

// Lane extracts one lane of the wide waveform as a scalar waveform,
// keeping only genuine changes: a wide sample contributes a scalar sample
// for the lane exactly when that lane's value differs from the lane's
// previous value on the same net (starting from initial, the committed
// value of each net after time-zero initialization). The result is what a
// scalar engine driven with lane k's stimulus would have recorded, which
// is the conformance-suite oracle.
func (w WideWaveform) Lane(lane int, initial func(circuit.GateID) logic.Value) Waveform {
	cur := make(map[circuit.GateID]logic.Value)
	out := make(Waveform, 0, len(w))
	for _, s := range w {
		v := s.Value.Get(lane)
		prev, seen := cur[s.Gate]
		if !seen {
			prev = initial(s.Gate)
		}
		if v == prev {
			continue
		}
		cur[s.Gate] = v
		out = append(out, Sample{Time: s.Time, Gate: s.Gate, Value: v})
	}
	return out
}

// ValueAt reconstructs lane's value of gate g at time t (samples at
// exactly t included), starting from initial.
func (w WideWaveform) ValueAt(g circuit.GateID, lane int, t circuit.Tick, initial logic.Value) logic.Value {
	v := initial
	for _, s := range w {
		if s.Time > t {
			break
		}
		if s.Gate == g {
			v = s.Value.Get(lane)
		}
	}
	return v
}
