package ckpt

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/trace"
)

func sample(t *testing.T) (*circuit.Circuit, *State) {
	t.Helper()
	c, err := gen.ByName("c17", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Kinds)
	mk := func(v logic.Value) []logic.Value {
		s := make([]logic.Value, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	return c, &State{
		Version:     Version,
		Fingerprint: Fingerprint(c),
		Time:        100,
		Until:       400,
		System:      uint8(logic.NineValued),
		EndTime:     97,
		Vals:        mk(logic.One),
		PrevClk:     mk(logic.Zero),
		Projected:   mk(logic.One),
		Events:      []Event{{Time: 101, Gate: 0, Value: logic.Zero}},
		Waveform:    trace.Waveform{{Time: 5, Gate: c.Outputs[0], Value: logic.One}},
	}
}

func TestRoundTripFile(t *testing.T) {
	c, st := sample(t)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := WriteFile(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(c, logic.NineValued); err != nil {
		t.Fatalf("round-tripped snapshot fails Check: %v", err)
	}
	if got.Time != st.Time || got.EndTime != st.EndTime || len(got.Events) != 1 || len(got.Vals) != len(st.Vals) {
		t.Errorf("round trip lost data: %+v", got)
	}
	if got.Events[0] != st.Events[0] {
		t.Errorf("event round trip: got %+v want %+v", got.Events[0], st.Events[0])
	}
}

func TestCheckRejections(t *testing.T) {
	c, _ := sample(t)
	other, err := gen.ByName("s27", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mut    func(*State)
		circ   *circuit.Circuit
		sys    logic.System
		substr string
	}{
		{"version", func(s *State) { s.Version = "bogus/v9" }, c, logic.NineValued, "version"},
		{"fingerprint", func(s *State) {}, other, logic.NineValued, "fingerprint"},
		{"system", func(s *State) {}, c, logic.TwoValued, "logic"},
		{"planes", func(s *State) { s.Vals = s.Vals[:1] }, c, logic.NineValued, "planes"},
		{"event-time", func(s *State) { s.Events[0].Time = 100 }, c, logic.NineValued, "boundary"},
		{"event-gate", func(s *State) { s.Events[0].Gate = circuit.GateID(len(c.Kinds)) }, c, logic.NineValued, "outside"},
	}
	for _, tc := range cases {
		_, st := sample(t)
		tc.mut(st)
		err := st.Check(tc.circ, tc.sys)
		if err == nil {
			t.Errorf("%s: Check accepted a bad snapshot", tc.name)
		} else if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.substr)
		}
	}
}

func TestWaveformConversion(t *testing.T) {
	w := trace.Waveform{{Time: 3, Gate: 1, Value: logic.One}, {Time: 9, Gate: 2, Value: logic.Zero}}
	st := &State{Waveform: w}
	back := st.Prefix()
	if len(back) != len(w) {
		t.Fatalf("length %d, want %d", len(back), len(w))
	}
	for i := range w {
		if back[i] != w[i] {
			t.Errorf("sample %d: got %+v want %+v", i, back[i], w[i])
		}
	}
	// Prefix must hand out a fresh slice each call.
	p1 := st.Prefix()
	p1[0].Time = 999
	if st.Prefix()[0].Time == 999 {
		t.Error("Prefix aliases its backing store")
	}
}

func TestFingerprintDistinguishesCircuits(t *testing.T) {
	a, err := gen.ByName("c17", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.ByName("s27", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("different circuits share a fingerprint")
	}
	if Fingerprint(a) != Fingerprint(a) {
		t.Error("fingerprint is not deterministic")
	}
}

// TestWideRoundTrip: a 64-lane snapshot names its plane in its header,
// Load reads back either plane by it, the checksum covers every lane, and
// As boots only a run on the snapshot's own plane.
func TestWideRoundTrip(t *testing.T) {
	c, st := sample(t)
	splat := func(p []logic.Value) []logic.Word {
		out := make([]logic.Word, len(p))
		for i, v := range p {
			out[i] = logic.Splat(v).Set(5, logic.X)
		}
		return out
	}
	wide := &WideState{
		Version: Version, Fingerprint: st.Fingerprint, Time: st.Time, Until: st.Until,
		System: uint8(logic.FourValued), EndTime: st.EndTime,
		Vals: splat(st.Vals), PrevClk: splat(st.PrevClk), Projected: splat(st.Projected),
		Events:   []EventT[logic.Word]{{Time: 101, Gate: 0, Value: logic.Splat(logic.Zero)}},
		Waveform: trace.WaveformT[logic.Word]{{Time: 5, Gate: c.Outputs[0], Value: logic.Splat(logic.One)}},
	}
	dir := t.TempDir()
	scalarPath, widePath := filepath.Join(dir, "scalar.json"), filepath.Join(dir, "wide.json")
	if err := WriteFile(scalarPath, st); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(widePath, wide); err != nil {
		t.Fatal(err)
	}
	if wide.Plane != "wide" || st.Plane != "" {
		t.Fatalf("planes %q and %q, want wide and none", wide.Plane, st.Plane)
	}
	snap, err := Load(widePath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := As[logic.Word](snap, logic.FourValued)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(c, logic.FourValued); err != nil {
		t.Fatalf("round-tripped wide snapshot fails Check: %v", err)
	}
	if got.Vals[3] != wide.Vals[3] || got.Events[0] != wide.Events[0] || got.Waveform[0] != wide.Waveform[0] {
		t.Errorf("wide round trip lost data: %+v", got)
	}
	if _, err := As[logic.Value](snap, logic.FourValued); err == nil || !strings.Contains(err.Error(), "wide plane") {
		t.Errorf("a wide snapshot boots a scalar run: %v", err)
	}
	if snap, err = Load(scalarPath); err != nil {
		t.Fatal(err)
	} else if _, ok := snap.(*State); !ok {
		t.Errorf("Load read a scalar snapshot as %T", snap)
	}
	got.Vals[3] = got.Vals[3].Set(9, logic.Z)
	if err := got.Verify(); err == nil {
		t.Error("a flipped lane passes the checksum")
	}
}
