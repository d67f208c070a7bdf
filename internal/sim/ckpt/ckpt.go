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
// A snapshot is generic over the run's value type, like the engines: a
// scalar State holds one logic.Value per net, a WideState one 64-lane
// logic.Word, and the header names the plane. The package sits below the
// engines in the import graph (it imports only circuit, logic, and
// trace), so engine configs can accept a *ckpt.StateT[V] without a
// cycle.
package ckpt

import (
	"bytes"
	"cmp"
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

// Event is the scalar pending event.
type Event = EventT[logic.Value]

// Cut is what an engine restores from or captures into: the state after
// every step at or before Time and none after (§IV) — value-plane
// entries, pending events, the waveform through Time and the last
// timestep executed (at least the boot's) — in the run's value type. An
// LP of an asynchronous engine cuts the gates it owns, listed in Gates,
// and the parts of every LP, stitched by gate owner, are the whole cut;
// an engine on one shared plane (seq, sync) and a boot snapshot cover
// every gate and leave Gates nil. Both entry points of every engine boot
// from a StateT and cut into Cuts of their own plane.
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
func (s *StateT[V]) Seed(c *circuit.Circuit, sys logic.System) (*Cut[V], error) {
	if s == nil {
		return nil, nil
	}
	if err := s.Check(c, sys); err != nil {
		return nil, err
	}
	return &Cut[V]{
		Time: circuit.Tick(s.Time), EndTime: circuit.Tick(s.EndTime),
		Vals: s.Vals, PrevClk: s.PrevClk, Projected: s.Projected, Events: s.Events, Waveform: s.Waveform,
	}, nil
}

// StateT is a complete restorable snapshot at modeled-time boundary Time
// over the value type of the run: the three kernel value planes, the
// pending event set, and the waveform prefix recorded so far.
type StateT[V comparable] struct {
	Version string `json:"version"`
	// Plane names the value plane: empty for scalar values, "wide" for
	// 64-lane words. Seal stamps it from V, so a snapshot of one plane
	// never boots a run on the other.
	Plane       string `json:"plane,omitempty"`
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

	Vals      []V                `json:"vals"`
	PrevClk   []V                `json:"prev_clk"`
	Projected []V                `json:"projected"`
	Events    []EventT[V]        `json:"events"`
	Waveform  trace.WaveformT[V] `json:"waveform"`

	// Sum is an fnv64a checksum over the payload fields above; Write
	// fills it in and Read verifies it, so a bit flip anywhere in the
	// planes, events, or waveform surfaces as ErrCorrupt instead of a
	// silently wrong restore. A snapshot without one is corrupt.
	Sum string `json:"sum,omitempty"`
}

// State is the scalar snapshot; its files are the ones every earlier
// version wrote, byte for byte.
type State = StateT[logic.Value]

// WideState is the 64-lane snapshot.
type WideState = StateT[logic.Word]

// sum computes the payload checksum Write stores in Sum.
func (s *StateT[V]) sum() string {
	d := newDigest()
	d.str(s.Version)
	if p := planeOf[V](); p != "" {
		d.str(" " + p)
	}
	d.char(' ')
	d.str(s.Fingerprint)
	for _, u := range []uint64{s.Time, s.Until, uint64(s.System), s.EndTime} {
		d.char(' ')
		d.uint(u)
	}
	d.end('\n')
	text := texts[V]()
	for _, p := range [][]V{s.Vals, s.PrevClk, s.Projected} {
		d.int(int64(len(p)))
		d.char(':')
		values(d, p, text)
		d.end('\n')
	}
	for _, ev := range s.Events {
		record(d, text, "e ", ev.Time, int64(ev.Gate), ev.Value)
	}
	for _, sm := range s.Waveform {
		record(d, text, "w ", uint64(sm.Time), int64(sm.Gate), sm.Value)
	}
	return d.sum()
}

// Seal stamps the plane and fills in the payload checksum. Write calls it
// automatically; callers embedding a State elsewhere (per-shard
// snapshots) call it directly.
func (s *StateT[V]) Seal() {
	s.Plane = planeOf[V]()
	s.Sum = s.sum()
}

// Verify checks the payload checksum, returning an error wrapping
// ErrCorrupt on mismatch, an empty Sum included.
func (s *StateT[V]) Verify() error {
	if got := s.sum(); got != s.Sum {
		return fmt.Errorf("%w: checksum %s, recorded %s (bit flip?)", ErrCorrupt, got, s.Sum)
	}
	return nil
}

// Snapshot is a decoded snapshot of either plane, as Load returns it and
// core.Options.Restore holds it; As recovers the run's plane.
type Snapshot interface {
	head() (plane string, system uint8)
}

func (s *StateT[V]) head() (string, uint8) { return planeOf[V](), s.System }

// As is the one check of a snapshot from outside the program against the
// plane of the run it boots: the snapshot itself when it holds V, nil for
// none, and otherwise an error naming both planes and both logic systems.
func As[V comparable](s Snapshot, sys logic.System) (*StateT[V], error) {
	if st, ok := s.(*StateT[V]); ok || s == nil {
		return st, nil
	}
	plane, system := s.head()
	return nil, fmt.Errorf("ckpt: snapshot captured on the %s plane under %d-valued logic cannot boot a %s run under %d-valued logic",
		cmp.Or(plane, "scalar"), system, cmp.Or(planeOf[V](), "scalar"), uint8(sys))
}

// Fingerprint hashes the circuit topology (gate kinds, delays, fanin)
// so a checkpoint cannot be restored into a different circuit.
func Fingerprint(c *circuit.Circuit) string {
	d := newDigest()
	d.str("gates=")
	d.int(int64(len(c.Kinds)))
	d.str(" in=")
	d.int(int64(len(c.Inputs)))
	d.str(" out=")
	d.int(int64(len(c.Outputs)))
	d.end('\n')
	for i, k := range c.Kinds {
		d.int(int64(i))
		d.char(' ')
		d.uint(uint64(k))
		d.char(' ')
		d.uint(uint64(c.Delays[i]))
		for _, f := range c.FaninAdj.Row(circuit.GateID(i)) {
			d.char(' ')
			d.int(int64(f))
		}
		d.end('\n')
	}
	return d.sum()
}

// Check validates that the snapshot can be restored into circuit c
// under logic system sys.
func (s *StateT[V]) Check(c *circuit.Circuit, sys logic.System) error {
	return s.CheckPrint(Fingerprint(c), c, sys)
}

// CheckPrint is Check for a caller that already holds fp, the
// fingerprint of c (a decoded pipeline.Prepared carries the one it
// verified).
func (s *StateT[V]) CheckPrint(fp string, c *circuit.Circuit, sys logic.System) error {
	if s.Version != Version {
		return fmt.Errorf("ckpt: version %q, want %q", s.Version, Version)
	}
	if s.Fingerprint != fp {
		return fmt.Errorf("ckpt: circuit fingerprint %s does not match %s (different circuit?)", s.Fingerprint, fp)
	}
	if s.System != uint8(sys) {
		return fmt.Errorf("ckpt: captured under %d-valued logic, restoring under %d-valued", s.System, uint8(sys))
	}
	n := len(c.Kinds)
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
func (s *StateT[V]) Prefix() trace.WaveformT[V] {
	return append(make(trace.WaveformT[V], 0, len(s.Waveform)), s.Waveform...)
}

// Write serializes the snapshot as JSON, sealing the payload checksum
// first.
func Write[V comparable](w io.Writer, s *StateT[V]) error { return write(w, s) }

// Read deserializes, version-checks, and checksum-verifies a scalar
// snapshot.
func Read(r io.Reader) (*State, error) { return read[State](r, Version) }

// WriteFile atomically writes the snapshot to path (write temp,
// rename), so a kill mid-write never leaves a truncated checkpoint.
func WriteFile[V comparable](path string, s *StateT[V]) error { return writeFile(path, s) }

// ReadFile loads a scalar snapshot from path.
func ReadFile(path string) (*State, error) { return readFile(path, Read) }

// Load reads a snapshot of whichever plane its header names, for a caller
// that learns the run's plane only later (As).
func Load(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var h struct{ Plane string }
	if err := json.Unmarshal(b, &h); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if h.Plane == planeOf[logic.Word]() {
		return read[WideState](bytes.NewReader(b), Version)
	}
	return read[State](bytes.NewReader(b), Version)
}

// sealed is a checksummed record: a snapshot or a delta.
type sealed interface {
	Seal()
	Verify() error
	version() string
}

func (s *StateT[V]) version() string { return s.Version }

// write serializes a record as JSON, sealing it first.
func write(w io.Writer, r sealed) error {
	r.Seal()
	return json.NewEncoder(w).Encode(r)
}

// read deserializes a record, checks its version against want and
// verifies its checksum. A record that does not decode (truncated
// mid-write) or whose checksum does not match (bit flip) yields an error
// wrapping ErrCorrupt.
func read[T any, P interface {
	*T
	sealed
}](r io.Reader, want string) (P, error) {
	p := P(new(T))
	if err := json.NewDecoder(r).Decode(p); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if v := p.version(); v != want {
		return nil, fmt.Errorf("ckpt: version %q, want %q", v, want)
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// writeFile writes a record to path through a temporary file and a
// rename.
func writeFile(path string, r sealed) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f, r); err != nil {
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

// readFile opens path for one of the readers.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var none T
		return none, err
	}
	defer f.Close()
	return read(f)
}
