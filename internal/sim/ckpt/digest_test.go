package ckpt_test

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// The three fmt-based checksum writers the strconv digest replaced, copied
// verbatim. Digests are stored in every checkpoint and delta file, so the
// new writers must feed the hash exactly the same bytes.

func fmtStateSum(s *ckpt.State) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %s %d %d %d %d\n", s.Version, s.Fingerprint, s.Time, s.Until, s.System, s.EndTime)
	for _, p := range [][]logic.Value{s.Vals, s.PrevClk, s.Projected} {
		fmt.Fprintf(h, "%d:", len(p))
		for _, v := range p {
			h.Write([]byte{byte(v)})
		}
		h.Write([]byte{'\n'})
	}
	for _, ev := range s.Events {
		fmt.Fprintf(h, "e %d %d %d\n", ev.Time, ev.Gate, ev.Value)
	}
	for _, sm := range s.Waveform {
		fmt.Fprintf(h, "w %d %d %d\n", sm.Time, sm.Gate, sm.Value)
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

func fmtFingerprint(c *circuit.Circuit) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "gates=%d in=%d out=%d\n", len(c.Kinds), len(c.Inputs), len(c.Outputs))
	for i, k := range c.Kinds {
		fmt.Fprintf(h, "%d %d %d", i, k, c.Delays[i])
		for _, f := range c.FaninAdj.Row(circuit.GateID(i)) {
			fmt.Fprintf(h, " %d", f)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

func fmtDeltaSum(d *ckpt.Delta) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %s %d %d %s %d %d %d\n",
		d.Version, d.Fingerprint, d.Time, d.BaseTime, d.BaseSum, d.Until, d.System, d.EndTime)
	for _, e := range d.Changed {
		fmt.Fprintf(h, "c %d %d %d %d\n", e.Gate, e.Val, e.PrevClk, e.Projected)
	}
	for _, ev := range d.Events {
		fmt.Fprintf(h, "e %d %d %d\n", ev.Time, ev.Gate, ev.Value)
	}
	for _, sm := range d.Waveform {
		fmt.Fprintf(h, "w %d %d %d\n", sm.Time, sm.Gate, sm.Value)
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// TestDigestsMatchFmtWriters: on real sequential snapshots of c17, s27 and
// dag12000, and on every delta between consecutive ones, the fingerprint,
// state and delta digests equal the fmt-based writers' byte for byte.
func TestDigestsMatchFmtWriters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		vectors int
		every   circuit.Tick
	}{{"c17", 20, 25}, {"s27", 20, 25}, {"dag12000", 3, 40}} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "dag12000" {
				t.Skip("dag12000 skipped in -short")
			}
			c, err := gen.ByName(tc.name, gen.Fine(4, 1), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ckpt.Fingerprint(c), fmtFingerprint(c); got != want {
				t.Fatalf("Fingerprint %s, fmt writer %s", got, want)
			}
			stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: tc.vectors, Period: 20, Activity: 0.5, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			var states []*ckpt.State
			if _, err := seq.Run(c, stim, seq.Horizon(c, stim), seq.Config{
				System: logic.NineValued, CheckpointEvery: tc.every,
				Checkpoint: func(st *ckpt.State) error { states = append(states, st); return nil },
			}); err != nil {
				t.Fatal(err)
			}
			if len(states) < 2 {
				t.Fatalf("only %d boundaries", len(states))
			}
			for i, st := range states {
				st.Seal()
				if want := fmtStateSum(st); st.Sum != want {
					t.Errorf("state at %d: digest %s, fmt writer %s", st.Time, st.Sum, want)
				}
				if i == 0 {
					continue
				}
				d, err := ckpt.DeltaFrom(states[i-1], st)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmtDeltaSum(d); d.Sum != want {
					t.Errorf("delta at %d: digest %s, fmt writer %s", d.Time, d.Sum, want)
				}
			}
		})
	}
}

// TestCommittedSnapshotsVerify: a full snapshot and a delta sealed by the
// fmt-based writers and committed under testdata still verify, and replay
// into the state they were cut from.
func TestCommittedSnapshotsVerify(t *testing.T) {
	st, err := ckpt.ReadFile(filepath.Join("testdata", "s27-full.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmtStateSum(st); st.Sum != want {
		t.Errorf("committed snapshot: recorded %s, fmt writer %s", st.Sum, want)
	}
	c, err := gen.ByName("s27", gen.Fine(3, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Check(c, logic.NineValued); err != nil {
		t.Errorf("committed snapshot no longer matches its circuit: %v", err)
	}
	d, err := ckpt.ReadDeltaFile(filepath.Join("testdata", "s27-delta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmtDeltaSum(d); d.Sum != want {
		t.Errorf("committed delta: recorded %s, fmt writer %s", d.Sum, want)
	}
	next, err := d.Apply(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmtStateSum(next); next.Sum != want {
		t.Errorf("replayed state: digest %s, fmt writer %s", next.Sum, want)
	}
}

// BenchmarkFingerprint prices the circuit digest a worker used to pay
// several times per job on the benchmark's dag12000.
func BenchmarkFingerprint(b *testing.B) {
	c, err := gen.ByName("dag12000", gen.Fine(4, 1), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ckpt.Fingerprint(c)
		}
	})
	b.Run("fmt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fmtFingerprint(c)
		}
	})
}
