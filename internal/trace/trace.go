// Package trace records and compares signal waveforms.
//
// Waveform equality against the sequential reference engine is the
// correctness oracle for every parallel engine in this repository: two
// engines that produce the same committed waveform on the watched nets are
// behaviorally indistinguishable. Recorders support truncation so that
// optimistic engines can unwind speculative history on rollback, and
// recorded shards from per-LP recorders merge into one canonical waveform.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// SampleT is one committed value change on a watched net, over the value
// type of the run: a scalar logic.Value, or a 64-lane logic.Word holding
// the complete state of the net at Time. The JSON tags are the stored form
// checkpoints and distributed shard results carry.
type SampleT[V comparable] struct {
	Time  circuit.Tick   `json:"t"`
	Gate  circuit.GateID `json:"g"`
	Value V              `json:"v"`
}

// Sample is the scalar sample.
type Sample = SampleT[logic.Value]

// WaveformT is a canonical change history: samples sorted by (Time, Gate).
type WaveformT[V comparable] []SampleT[V]

// Waveform is the scalar waveform.
type Waveform = WaveformT[logic.Value]

// RecorderT accumulates samples in nondecreasing time order. The zero value
// is ready to use. Recorders are not safe for concurrent use; parallel
// engines keep one per logical process and merge at the end.
type RecorderT[V comparable] struct {
	samples []SampleT[V]
}

// Recorder is the scalar recorder.
type Recorder = RecorderT[logic.Value]

// Record appends a change. Callers record only genuine changes (the new
// value differs from the net's previous committed value; for a word, in at
// least one lane); engines already track net values, so the recorder does
// not duplicate that bookkeeping.
func (r *RecorderT[V]) Record(t circuit.Tick, g circuit.GateID, v V) {
	r.samples = append(r.samples, SampleT[V]{t, g, v})
}

// TruncateFrom discards all samples with Time >= t. It is how Time Warp
// unwinds speculative output on rollback; samples are appended in
// nondecreasing time order, so truncation is a suffix cut.
func (r *RecorderT[V]) TruncateFrom(t circuit.Tick) {
	i := sort.Search(len(r.samples), func(i int) bool { return r.samples[i].Time >= t })
	r.samples = r.samples[:i]
}

// Len returns the number of recorded samples.
func (r *RecorderT[V]) Len() int { return len(r.samples) }

// Samples is the recorded history in recording order; the slice must not
// be written.
func (r *RecorderT[V]) Samples() []SampleT[V] { return r.samples }

// Merge combines recorder shards into one canonical waveform. Each
// recorder is already in time order, so the shards merge by time, and only
// each run of samples at one time is sorted, by gate.
func Merge[V comparable](recs ...*RecorderT[V]) WaveformT[V] {
	var n int
	for _, r := range recs {
		n += len(r.samples)
	}
	w := make(WaveformT[V], 0, n)
	next := make([]int, len(recs)) // per recorder, its first unmerged sample
	for len(w) < n {
		t := circuit.Tick(math.MaxUint64)
		for i, r := range recs {
			if next[i] < len(r.samples) {
				t = min(t, r.samples[next[i]].Time)
			}
		}
		run := len(w)
		for i, r := range recs {
			j := next[i]
			for j < len(r.samples) && r.samples[j].Time == t {
				j++
			}
			w = append(w, r.samples[next[i]:j]...)
			next[i] = j
		}
		if len(w)-run > 1 {
			slices.SortFunc(w[run:], func(a, b SampleT[V]) int { return cmp.Compare(a.Gate, b.Gate) })
		}
	}
	return w
}

// Sort puts samples in canonical waveform order: by time, then by gate.
func Sort[V comparable](w []SampleT[V]) {
	slices.SortFunc(w, func(a, b SampleT[V]) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Gate, b.Gate)
	})
}

// Equal reports whether two waveforms are identical.
func Equal(a, b Waveform) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first few differences
// between two waveforms, or "" when they are equal. It is the failure
// message generator for the cross-engine equivalence tests.
func Diff(want, got Waveform, limit int) string {
	if Equal(want, got) {
		return ""
	}
	out := fmt.Sprintf("waveforms differ: %d vs %d samples\n", len(want), len(got))
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	shown := 0
	for i := 0; i < n && shown < limit; i++ {
		var w, g string
		if i < len(want) {
			w = fmt.Sprintf("t=%d gate=%d %v", want[i].Time, want[i].Gate, want[i].Value)
		} else {
			w = "(none)"
		}
		if i < len(got) {
			g = fmt.Sprintf("t=%d gate=%d %v", got[i].Time, got[i].Gate, got[i].Value)
		} else {
			g = "(none)"
		}
		if w != g {
			out += fmt.Sprintf("  [%d] want %s, got %s\n", i, w, g)
			shown++
		}
	}
	return out
}

// ValueAt reconstructs the value of gate g at time t from the waveform,
// given the gate's initial value. Samples at exactly t are included.
func (w WaveformT[V]) ValueAt(g circuit.GateID, t circuit.Tick, initial V) V {
	v := initial
	for _, s := range w {
		if s.Time > t {
			break
		}
		if s.Gate == g {
			v = s.Value
		}
	}
	return v
}

// WriteVCD emits the waveform as a Value Change Dump, the standard
// interchange format for logic waveform viewers. watched lists the gates in
// the waveform; names come from the circuit.
func WriteVCD(w io.Writer, c *circuit.Circuit, watched []circuit.GateID, wf Waveform, timescale string) error {
	if timescale == "" {
		timescale = "1ns"
	}
	if _, err := fmt.Fprintf(w, "$date\n  (generated)\n$end\n$version\n  parsim\n$end\n$timescale %s $end\n$scope module top $end\n", timescale); err != nil {
		return err
	}
	ids := make(map[circuit.GateID]string, len(watched))
	for i, g := range watched {
		// VCD identifier codes: printable ASCII starting at '!'.
		code := vcdCode(i)
		ids[g] = code
		name := c.Name(g)
		if _, err := fmt.Fprintf(w, "$var wire 1 %s %s $end\n", code, name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w, "$upscope $end\n$enddefinitions $end\n"); err != nil {
		return err
	}
	// Initial values: dump X for everything at time 0 unless the waveform
	// says otherwise below.
	if _, err := fmt.Fprint(w, "$dumpvars\n"); err != nil {
		return err
	}
	for _, g := range watched {
		if _, err := fmt.Fprintf(w, "x%s\n", ids[g]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(w, "$end\n"); err != nil {
		return err
	}
	var lastTime circuit.Tick
	timeWritten := false
	for _, s := range wf {
		code, ok := ids[s.Gate]
		if !ok {
			continue
		}
		if !timeWritten || s.Time != lastTime {
			if _, err := fmt.Fprintf(w, "#%d\n", s.Time); err != nil {
				return err
			}
			lastTime = s.Time
			timeWritten = true
		}
		if _, err := fmt.Fprintf(w, "%s%s\n", vcdValue(s.Value), code); err != nil {
			return err
		}
	}
	return nil
}

// vcdCode builds a short printable identifier for variable index i.
func vcdCode(i int) string {
	const alphabet = 94 // printable ASCII from '!' (33) to '~' (126)
	var buf []byte
	for {
		buf = append(buf, byte('!'+i%alphabet))
		i /= alphabet
		if i == 0 {
			break
		}
		i--
	}
	return string(buf)
}

// vcdValue maps a logic value onto VCD's four-state alphabet.
func vcdValue(v logic.Value) string {
	switch {
	case v.IsHigh():
		return "1"
	case v.IsLow():
		return "0"
	case v == logic.Z:
		return "z"
	default:
		return "x"
	}
}
