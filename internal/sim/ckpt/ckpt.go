// Package ckpt defines the on-disk checkpoint format for simulation
// runs: a consistent cut of net values, pending events, and the
// waveform prefix at a modeled-time boundary, serializable as JSON and
// restorable into any event-driven engine.
//
// Consistency model: every engine in this repository implements the
// same two-phase timestep semantics and therefore computes the same
// trajectory of (state, pending events) at every modeled time. A
// checkpoint captured at boundary T — all events with time <= T
// applied, all pending events strictly later — is thus a consistent
// cut for *every* engine, not just the one that wrote it. Engines
// restore by seeding their net-value arrays, requeuing the pending
// events to the owning LPs, and skipping the time-0 settling step.
//
// The package sits below the engines in the import graph (it imports
// only circuit, logic, and trace), so engine configs can accept a
// *ckpt.State without a cycle.
package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/trace"
)

// Version is the checkpoint format identifier. Bump on any
// incompatible schema change.
const Version = "parsim-checkpoint/v1"

// ErrCorrupt is the structured sentinel for a snapshot that cannot be
// trusted: a truncated file (a writer died mid-write and the atomic
// rename never happened — or the filesystem lost the tail), or a
// bit-flipped payload whose checksum no longer matches. Readers get an
// error wrapping ErrCorrupt, never a panic, so distributed recovery can
// skip the bad file and fall back to an older boundary with errors.Is.
var ErrCorrupt = errors.New("ckpt: corrupt snapshot")

// EventT is one pending event in a snapshot: a scheduled output change
// for a gate at an absolute modeled time strictly greater than the
// checkpoint boundary, over the value type of the run.
type EventT[V comparable] struct {
	Time  uint64         `json:"t"`
	Gate  circuit.GateID `json:"g"`
	Value V              `json:"v"`
}

// Event is the scalar pending event, the one the on-disk format stores.
type Event = EventT[logic.Value]

// Cut is what an engine restores from or captures into: the state after
// every step at or before Time and none after (§IV) — value-plane
// entries, pending events, the waveform through Time and the last
// timestep executed (at least the boot's) — in the run's value type. An
// LP of an asynchronous engine cuts the gates it owns, listed in Gates,
// and the parts of every LP, stitched by gate owner, are the whole cut;
// an engine on one shared plane (seq, sync) and a boot snapshot cover
// every gate and leave Gates nil. The on-disk State holds scalar values
// only, so the scalar entry points boot from one and the wide entry
// points pass none.
type Cut[V comparable] struct {
	LP            int
	Time, EndTime circuit.Tick
	// Gates lists the owned gates (shared, read-only); Vals, PrevClk and
	// Projected are parallel to it.
	Gates                    []circuit.GateID
	Vals, PrevClk, Projected []V
	Events                   []EventT[V]
	Waveform                 []trace.SampleT[V]
}

// Seed validates the snapshot against circuit c under logic system sys
// and returns the whole cut an engine boots from. A nil State yields a
// nil cut: the run starts from the stimulus.
func (s *State) Seed(c *circuit.Circuit, sys logic.System) (*Cut[logic.Value], error) {
	if s == nil {
		return nil, nil
	}
	if err := s.Check(c, sys); err != nil {
		return nil, err
	}
	return &Cut[logic.Value]{
		Time: circuit.Tick(s.Time), EndTime: circuit.Tick(s.EndTime),
		Vals: s.Vals, PrevClk: s.PrevClk, Projected: s.Projected, Events: s.Events, Waveform: s.Waveform,
	}, nil
}

// State is a complete restorable snapshot at modeled-time boundary
// Time: the three kernel value planes, the pending event set, and the
// waveform prefix recorded so far.
type State struct {
	Version     string `json:"version"`
	Fingerprint string `json:"circuit"`
	// Time is the checkpoint boundary: every event with time <= Time has
	// been applied, every entry of Events is strictly later.
	Time  uint64 `json:"time"`
	Until uint64 `json:"until"`
	// System is the logic value system the run used (its numeric value:
	// 2, 4, or 9); restoring under a different system is rejected.
	System uint8 `json:"system"`
	// EndTime is the last timestep actually executed before the boundary
	// (<= Time; the restored run's EndTime is the max of this and its
	// own).
	EndTime uint64 `json:"end_time"`

	Vals      []logic.Value  `json:"vals"`
	PrevClk   []logic.Value  `json:"prev_clk"`
	Projected []logic.Value  `json:"projected"`
	Events    []Event        `json:"events"`
	Waveform  trace.Waveform `json:"waveform"`

	// Sum is an fnv64a checksum over the payload fields above; Write
	// fills it in and Read verifies it, so a bit flip anywhere in the
	// planes, events, or waveform surfaces as ErrCorrupt instead of a
	// silently wrong restore. A snapshot without one is corrupt.
	Sum string `json:"sum,omitempty"`
}

// sum computes the payload checksum Write stores in Sum.
func (s *State) sum() string {
	d := newDigest()
	d.str(s.Version)
	d.char(' ')
	d.str(s.Fingerprint)
	for _, u := range []uint64{s.Time, s.Until, uint64(s.System), s.EndTime} {
		d.char(' ')
		d.uint(u)
	}
	d.end('\n')
	for _, p := range [][]logic.Value{s.Vals, s.PrevClk, s.Projected} {
		d.int(int64(len(p)))
		d.char(':')
		for _, v := range p {
			d.end(byte(v))
		}
		d.end('\n')
	}
	for _, ev := range s.Events {
		d.record("e ", ev.Time, int64(ev.Gate), uint64(ev.Value))
	}
	for _, sm := range s.Waveform {
		d.record("w ", uint64(sm.Time), int64(sm.Gate), uint64(sm.Value))
	}
	return d.sum()
}

// Seal fills in the payload checksum. Write calls it automatically;
// callers embedding a State elsewhere (per-shard snapshots) call it
// directly.
func (s *State) Seal() { s.Sum = s.sum() }

// Verify checks the payload checksum, returning an error wrapping
// ErrCorrupt on mismatch, an empty Sum included.
func (s *State) Verify() error {
	if got := s.sum(); got != s.Sum {
		return fmt.Errorf("%w: checksum %s, recorded %s (bit flip?)", ErrCorrupt, got, s.Sum)
	}
	return nil
}

// Fingerprint hashes the circuit topology (gate kinds, delays, fanin)
// so a checkpoint cannot be restored into a different circuit.
func Fingerprint(c *circuit.Circuit) string {
	d := newDigest()
	d.str("gates=")
	d.int(int64(len(c.Gates)))
	d.str(" in=")
	d.int(int64(len(c.Inputs)))
	d.str(" out=")
	d.int(int64(len(c.Outputs)))
	d.end('\n')
	for i := range c.Gates {
		g := &c.Gates[i]
		d.int(int64(i))
		d.char(' ')
		d.uint(uint64(g.Kind))
		d.char(' ')
		d.uint(uint64(g.Delay))
		for _, f := range g.Fanin {
			d.char(' ')
			d.int(int64(f))
		}
		d.end('\n')
	}
	return d.sum()
}

// Check validates that the snapshot can be restored into circuit c
// under logic system sys.
func (s *State) Check(c *circuit.Circuit, sys logic.System) error {
	return s.CheckPrint(Fingerprint(c), c, sys)
}

// CheckPrint is Check for a caller that already holds fp, the
// fingerprint of c (a decoded pipeline.Prepared carries the one it
// verified).
func (s *State) CheckPrint(fp string, c *circuit.Circuit, sys logic.System) error {
	if s.Version != Version {
		return fmt.Errorf("ckpt: version %q, want %q", s.Version, Version)
	}
	if s.Fingerprint != fp {
		return fmt.Errorf("ckpt: circuit fingerprint %s does not match %s (different circuit?)", s.Fingerprint, fp)
	}
	if s.System != uint8(sys) {
		return fmt.Errorf("ckpt: captured under %d-valued logic, restoring under %d-valued", s.System, uint8(sys))
	}
	n := len(c.Gates)
	if len(s.Vals) != n || len(s.PrevClk) != n || len(s.Projected) != n {
		return fmt.Errorf("ckpt: value planes sized %d/%d/%d, want %d",
			len(s.Vals), len(s.PrevClk), len(s.Projected), n)
	}
	for _, ev := range s.Events {
		if ev.Time <= s.Time {
			return fmt.Errorf("ckpt: pending event at t=%d not after boundary t=%d", ev.Time, s.Time)
		}
		if int(ev.Gate) < 0 || int(ev.Gate) >= n {
			return fmt.Errorf("ckpt: pending event for gate %d outside circuit", ev.Gate)
		}
	}
	return nil
}

// Prefix copies the stored waveform prefix (a fresh slice on every call,
// so a caller may append to it).
func (s *State) Prefix() trace.Waveform {
	return append(make(trace.Waveform, 0, len(s.Waveform)), s.Waveform...)
}

// Write serializes the snapshot as JSON, sealing the payload checksum
// first.
func Write(w io.Writer, s *State) error {
	s.Seal()
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// Read deserializes, version-checks, and checksum-verifies a snapshot.
// A file that does not decode (truncated mid-write) or whose checksum
// does not match (bit flip) yields an error wrapping ErrCorrupt.
func Read(r io.Reader) (*State, error) {
	var s State
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("ckpt: version %q, want %q", s.Version, Version)
	}
	if err := s.Verify(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WriteFile atomically writes the snapshot to path (write temp,
// rename), so a kill mid-write never leaves a truncated checkpoint.
func WriteFile(path string, s *State) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile loads a snapshot from path.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
