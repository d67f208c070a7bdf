// Incremental (delta) checkpoints. A Delta records only what changed
// between two consecutive sealed boundary snapshots of the same run:
// the gates whose value planes moved, the full replacement pending-event
// set (small by construction), and the waveform suffix recorded after
// the base boundary. Deltas are fingerprint-chained: each one names the
// payload checksum of the exact predecessor state it applies to, so a
// replayed chain either reconstructs the full snapshot byte-for-byte or
// fails with a structured ErrCorrupt — never a silently wrong restore.
//
// The trajectory of every engine in this repository is deterministic,
// so a delta's content depends only on (workload, base boundary,
// boundary), never on which run attempt wrote it — the same property
// the full per-shard snapshots rely on for merge-safety across fleet
// restarts.
package ckpt

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/trace"
)

// DeltaVersion is the delta-record format identifier. Bump on any
// incompatible schema change.
const DeltaVersion = "parsim-ckpt-delta/v1"

// DeltaEntryT is one changed gate: the three kernel value-plane entries
// at the new boundary.
type DeltaEntryT[V comparable] struct {
	Gate      circuit.GateID `json:"g"`
	Val       V              `json:"v"`
	PrevClk   V              `json:"p"`
	Projected V              `json:"j"`
}

// DeltaT is one incremental checkpoint record over the run's value type:
// everything needed to roll a sealed base state at BaseTime forward to
// Time.
type DeltaT[V comparable] struct {
	Version string `json:"version"`
	// Plane names the value plane, as StateT.Plane does.
	Plane       string `json:"plane,omitempty"`
	Fingerprint string `json:"circuit"`
	// Time is the new boundary; BaseTime is the predecessor boundary the
	// delta applies to.
	Time     uint64 `json:"time"`
	BaseTime uint64 `json:"base_time"`
	// BaseSum is the payload checksum of the exact predecessor state —
	// the chain link. Apply refuses a base whose Sum differs.
	BaseSum string `json:"base_sum"`
	Until   uint64 `json:"until"`
	System  uint8  `json:"system"`
	EndTime uint64 `json:"end_time"`

	// Changed lists the gates whose value planes differ from the base.
	Changed []DeltaEntryT[V] `json:"changed"`
	// Events replaces the base's pending-event set outright.
	Events []EventT[V] `json:"events"`
	// Waveform is the sample suffix recorded after the base boundary.
	Waveform trace.WaveformT[V] `json:"waveform"`

	// Sum is the fnv64a checksum over the fields above, same scheme as
	// State.Sum.
	Sum string `json:"sum,omitempty"`
}

// Delta is the scalar delta record.
type Delta = DeltaT[logic.Value]

// sum computes the delta's own payload checksum.
func (d *DeltaT[V]) sum() string {
	h := newDigest()
	h.str(d.Version)
	if p := planeOf[V](); p != "" {
		h.str(" " + p)
	}
	h.char(' ')
	h.str(d.Fingerprint)
	h.char(' ')
	h.uint(d.Time)
	h.char(' ')
	h.uint(d.BaseTime)
	h.char(' ')
	h.str(d.BaseSum)
	for _, u := range []uint64{d.Until, uint64(d.System), d.EndTime} {
		h.char(' ')
		h.uint(u)
	}
	h.end('\n')
	text := texts[V]()
	for _, e := range d.Changed {
		h.str("c ")
		h.int(int64(e.Gate))
		for _, v := range [...]V{e.Val, e.PrevClk, e.Projected} {
			h.char(' ')
			text(h, v)
		}
		h.end('\n')
	}
	for _, ev := range d.Events {
		record(h, text, "e ", ev.Time, int64(ev.Gate), ev.Value)
	}
	for _, sm := range d.Waveform {
		record(h, text, "w ", uint64(sm.Time), int64(sm.Gate), sm.Value)
	}
	return h.sum()
}

// Seal stamps the plane and fills in the delta's checksum; WriteDelta
// calls it automatically.
func (d *DeltaT[V]) Seal() {
	d.Plane = planeOf[V]()
	d.Sum = d.sum()
}

// Verify checks the delta's checksum, wrapping ErrCorrupt on mismatch, an
// empty Sum included.
func (d *DeltaT[V]) Verify() error {
	if got := d.sum(); got != d.Sum {
		return fmt.Errorf("%w: delta checksum %s, recorded %s (bit flip?)", ErrCorrupt, got, d.Sum)
	}
	return nil
}

// DeltaFrom diffs two consecutive sealed boundary states of one run
// into a delta record. base must be the sealed state at the previous
// boundary of the same trajectory: cur's waveform extends base's, and
// cur's planes are the base's with the changed gates overwritten.
func DeltaFrom[V comparable](base, cur *StateT[V]) (*DeltaT[V], error) {
	if base.Fingerprint != cur.Fingerprint || base.System != cur.System {
		return nil, fmt.Errorf("ckpt: delta across different workloads (fp %s vs %s, sys %d vs %d)",
			base.Fingerprint, cur.Fingerprint, base.System, cur.System)
	}
	if base.Time >= cur.Time {
		return nil, fmt.Errorf("ckpt: delta base t=%d not before boundary t=%d", base.Time, cur.Time)
	}
	if base.Sum == "" {
		return nil, fmt.Errorf("ckpt: delta base at t=%d is unsealed", base.Time)
	}
	if len(base.Vals) != len(cur.Vals) ||
		len(base.Waveform) > len(cur.Waveform) {
		return nil, fmt.Errorf("ckpt: delta base does not prefix the boundary state")
	}
	d := &DeltaT[V]{
		Version: DeltaVersion, Fingerprint: cur.Fingerprint,
		Time: cur.Time, BaseTime: base.Time, BaseSum: base.Sum,
		Until: cur.Until, System: cur.System, EndTime: cur.EndTime,
		Events:   cur.Events,
		Waveform: cur.Waveform[len(base.Waveform):],
	}
	for g := range cur.Vals {
		if cur.Vals[g] != base.Vals[g] || cur.PrevClk[g] != base.PrevClk[g] ||
			cur.Projected[g] != base.Projected[g] {
			d.Changed = append(d.Changed, DeltaEntryT[V]{
				Gate: circuit.GateID(g), Val: cur.Vals[g],
				PrevClk: cur.PrevClk[g], Projected: cur.Projected[g],
			})
		}
	}
	d.Seal()
	return d, nil
}

// Apply rolls a sealed base state forward through the delta, verifying
// the chain link first: the base's checksum must equal the recorded
// BaseSum, or the chain is broken and the result untrustworthy. The
// returned state is sealed and byte-identical to the full snapshot the
// producing run would have written at the delta's boundary.
func (d *DeltaT[V]) Apply(base *StateT[V]) (*StateT[V], error) {
	if err := d.Verify(); err != nil {
		return nil, err
	}
	if base.Sum == "" || base.Sum != d.BaseSum {
		return nil, fmt.Errorf("%w: delta at t=%d chains to base %s, have %s (broken chain)",
			ErrCorrupt, d.Time, d.BaseSum, base.Sum)
	}
	if base.Time != d.BaseTime || base.Fingerprint != d.Fingerprint {
		return nil, fmt.Errorf("%w: delta at t=%d applies to base t=%d fp %s, have t=%d fp %s",
			ErrCorrupt, d.Time, d.BaseTime, d.Fingerprint, base.Time, base.Fingerprint)
	}
	out := &StateT[V]{
		Version: base.Version, Fingerprint: base.Fingerprint,
		Time: d.Time, Until: d.Until, System: d.System, EndTime: d.EndTime,
		Vals:      slices.Clone(base.Vals),
		PrevClk:   slices.Clone(base.PrevClk),
		Projected: slices.Clone(base.Projected),
		Events:    d.Events,
	}
	n := len(out.Vals)
	for _, e := range d.Changed {
		if int(e.Gate) < 0 || int(e.Gate) >= n {
			return nil, fmt.Errorf("%w: delta changes gate %d outside circuit", ErrCorrupt, e.Gate)
		}
		out.Vals[e.Gate] = e.Val
		out.PrevClk[e.Gate] = e.PrevClk
		out.Projected[e.Gate] = e.Projected
	}
	out.Waveform = make(trace.WaveformT[V], 0, len(base.Waveform)+len(d.Waveform))
	out.Waveform = append(out.Waveform, base.Waveform...)
	out.Waveform = append(out.Waveform, d.Waveform...)
	out.Seal()
	return out, nil
}

// WriteDelta serializes the delta as JSON, sealing it first.
func WriteDelta[V comparable](w io.Writer, d *DeltaT[V]) error { return write(w, d) }

// ReadDelta deserializes, version-checks, and checksum-verifies a scalar
// delta record; truncation and bit flips surface as ErrCorrupt.
func ReadDelta(r io.Reader) (*Delta, error) { return read[Delta](r, DeltaVersion) }

// WriteDeltaFile atomically writes the delta to path (write temp,
// rename), mirroring WriteFile.
func WriteDeltaFile[V comparable](path string, d *DeltaT[V]) error { return writeFile(path, d) }

// ReadDeltaFile loads a scalar delta record from path.
func ReadDeltaFile(path string) (*Delta, error) { return readFile(path, ReadDelta) }

func (d *DeltaT[V]) version() string { return d.Version }
