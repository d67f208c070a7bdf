package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/trace"
)

// fakeState builds a sealed synthetic snapshot: the delta layer never
// inspects circuit topology (only the fingerprint string), so unit
// tests can fabricate trajectories without building a circuit.
func fakeState(t uint64, vals []logic.Value, wf trace.Waveform) *State {
	s := &State{
		Version: Version, Fingerprint: "fnv64a:feedfacecafebeef",
		Time: t, Until: 500, System: 4, EndTime: t,
		Vals:      append([]logic.Value(nil), vals...),
		PrevClk:   make([]logic.Value, len(vals)),
		Projected: append([]logic.Value(nil), vals...),
		Events:    []Event{{Time: t + 3, Gate: 1, Value: 1}},
		Waveform:  wf,
	}
	s.Seal()
	return s
}

// step advances a fake trajectory one boundary: flip some gates, extend
// the waveform.
func step(base *State, t uint64, flip []circuit.GateID) *State {
	vals := append([]logic.Value(nil), base.Vals...)
	for _, g := range flip {
		vals[g] ^= 1
	}
	wf := append(base.Prefix(), trace.Sample{Time: circuit.Tick(t), Gate: flip[0], Value: vals[flip[0]]})
	return fakeState(t, vals, wf)
}

// TestDeltaRoundTrip is the core chain property: DeltaFrom then Apply
// reconstructs the boundary state exactly — same checksum, deep-equal
// payload — across a multi-link chain.
func TestDeltaRoundTrip(t *testing.T) {
	s0 := fakeState(100, []logic.Value{0, 1, 0, 1}, trace.Waveform{{Time: 50, Gate: 0, Value: 1}})
	s1 := step(s0, 200, []circuit.GateID{0, 2})
	s2 := step(s1, 300, []circuit.GateID{1})

	d1, err := DeltaFrom(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DeltaFrom(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	// A delta must be sparse: only the flipped gates appear.
	if len(d1.Changed) != 2 || len(d2.Changed) != 1 {
		t.Fatalf("changed sets sized %d/%d, want 2/1", len(d1.Changed), len(d2.Changed))
	}
	// Replay the chain from the base.
	r1, err := d1.Apply(s0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Apply(r1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sum != s1.Sum || !reflect.DeepEqual(r1, s1) {
		t.Errorf("link 1 restore diverges:\n got %+v\nwant %+v", r1, s1)
	}
	if r2.Sum != s2.Sum || !reflect.DeepEqual(r2, s2) {
		t.Errorf("link 2 restore diverges:\n got %+v\nwant %+v", r2, s2)
	}
}

// TestDeltaFileRoundTripAndCorruption covers the file layer: a written
// delta reads back intact; truncation and payload bit flips surface as
// structured ErrCorrupt, never as a silently different record.
func TestDeltaFileRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	s0 := fakeState(100, []logic.Value{0, 1, 0, 1}, nil)
	s1 := step(s0, 200, []circuit.GateID{3})
	d, err := DeltaFrom(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "delta.json")
	if err := WriteDeltaFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("file round trip diverges:\n got %+v\nwant %+v", got, d)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation: the writer died before the atomic rename ever happened.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDeltaFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated delta: err = %v, want ErrCorrupt", err)
	}
	// Bit flip: mutate a payload field, leave the recorded checksum.
	flipped := strings.Replace(string(raw), `"base_time":100`, `"base_time":101`, 1)
	if flipped == string(raw) {
		t.Fatal("bit-flip substitution found nothing to replace")
	}
	if err := os.WriteFile(path, []byte(flipped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDeltaFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit-flipped delta: err = %v, want ErrCorrupt", err)
	}
	// Version skew is a schema error, not corruption.
	skew := strings.Replace(string(raw), DeltaVersion, "parsim-ckpt-delta/v0", 1)
	if err := os.WriteFile(path, []byte(skew), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDeltaFile(path); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("version-skewed delta: err = %v, want non-corrupt version error", err)
	}
}

// TestDeltaApplyRejectsWrongBase pins the chain-link checks: applying
// a delta to any state other than its exact recorded predecessor —
// wrong checksum, wrong boundary time — is ErrCorrupt.
func TestDeltaApplyRejectsWrongBase(t *testing.T) {
	s0 := fakeState(100, []logic.Value{0, 1, 0, 1}, nil)
	s1 := step(s0, 200, []circuit.GateID{0})
	s2 := step(s1, 300, []circuit.GateID{1})
	d2, err := DeltaFrom(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong base entirely (the grandparent): BaseSum mismatch.
	if _, err := d2.Apply(s0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("apply to grandparent: err = %v, want ErrCorrupt", err)
	}
	// Unsealed base: the chain link cannot be checked, so refuse.
	unsealed := step(s0, 200, []circuit.GateID{0})
	unsealed.Sum = ""
	if _, err := d2.Apply(unsealed); !errors.Is(err, ErrCorrupt) {
		t.Errorf("apply to unsealed base: err = %v, want ErrCorrupt", err)
	}
	// A gate index outside the circuit in a verified record still must
	// not panic or write out of bounds.
	dBad, err := DeltaFrom(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	dBad.Changed[0].Gate = 99
	dBad.Seal()
	if _, err := dBad.Apply(s1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-range gate: err = %v, want ErrCorrupt", err)
	}
}

// TestDeltaFromRejectsInvalidPairs pins DeltaFrom's preconditions:
// mismatched workloads, non-advancing boundaries, and unsealed bases
// are diffing errors, not silently empty deltas.
func TestDeltaFromRejectsInvalidPairs(t *testing.T) {
	s0 := fakeState(100, []logic.Value{0, 1}, nil)
	s1 := step(s0, 200, []circuit.GateID{0})

	other := fakeState(200, []logic.Value{0, 1}, nil)
	other.Fingerprint = "fnv64a:0000000000000000"
	other.Seal()
	if _, err := DeltaFrom(s0, other); err == nil {
		t.Error("cross-workload delta accepted")
	}
	if _, err := DeltaFrom(s1, s0); err == nil {
		t.Error("backwards delta accepted")
	}
	unsealed := fakeState(100, []logic.Value{0, 1}, nil)
	unsealed.Sum = ""
	if _, err := DeltaFrom(unsealed, s1); err == nil {
		t.Error("delta from unsealed base accepted")
	}
}
