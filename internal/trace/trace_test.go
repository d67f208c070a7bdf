package trace

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

func TestRecorderAndMerge(t *testing.T) {
	var a, b Recorder
	a.Record(1, 0, logic.One)
	a.Record(5, 0, logic.Zero)
	b.Record(1, 1, logic.One)
	b.Record(3, 1, logic.Zero)
	w := Merge(&a, &b)
	want := Waveform{
		{1, 0, logic.One}, {1, 1, logic.One},
		{3, 1, logic.Zero}, {5, 0, logic.Zero},
	}
	if !Equal(w, want) {
		t.Fatalf("merge = %v, want %v", w, want)
	}
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatal("recorder lengths wrong")
	}
}

// TestMergeMatchesSort: merging time-ordered recorders, several of which
// record at the same times, gives what a full Sort of their samples gives.
func TestMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		recs := make([]*Recorder, 1+rng.Intn(8))
		for i := range recs {
			recs[i] = new(Recorder)
		}
		// Each gate belongs to one recorder and changes at most once per
		// time, as a watched net does under its owning LP.
		gates := 1 + rng.Intn(40)
		for tm := circuit.Tick(0); tm < circuit.Tick(1+rng.Intn(30)); tm += circuit.Tick(1 + rng.Intn(3)) {
			for _, g := range rng.Perm(gates)[:rng.Intn(gates+1)] {
				recs[g%len(recs)].Record(tm, circuit.GateID(g), logic.Value(rng.Intn(2)))
			}
		}
		var all Waveform
		for _, r := range recs {
			all = append(all, r.Samples()...)
		}
		Sort(all)
		if got := Merge(recs...); !Equal(got, all) {
			t.Fatalf("trial %d: %s", trial, Diff(all, got, 5))
		}
	}
}

func TestTruncateFrom(t *testing.T) {
	var r Recorder
	r.Record(1, 0, logic.One)
	r.Record(3, 0, logic.Zero)
	r.Record(3, 1, logic.One)
	r.Record(7, 0, logic.One)
	r.TruncateFrom(3)
	w := Merge(&r)
	if len(w) != 1 || w[0].Time != 1 {
		t.Fatalf("truncate kept %v", w)
	}
	// Record again after truncation.
	r.Record(4, 1, logic.Zero)
	if r.Len() != 2 {
		t.Fatal("record after truncation broken")
	}
	// Truncating from before everything empties the recorder.
	r.TruncateFrom(0)
	if r.Len() != 0 {
		t.Fatal("full truncation broken")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := Waveform{{1, 0, logic.One}}
	b := Waveform{{1, 0, logic.Zero}}
	if Equal(a, b) {
		t.Fatal("unequal waveforms compare equal")
	}
	if Equal(a, a[:0]) {
		t.Fatal("different lengths compare equal")
	}
	if d := Diff(a, b, 5); d == "" || !strings.Contains(d, "want") {
		t.Fatalf("Diff = %q", d)
	}
	if d := Diff(a, a, 5); d != "" {
		t.Fatalf("Diff of equal waveforms = %q", d)
	}
	longer := Waveform{{1, 0, logic.One}, {2, 0, logic.Zero}}
	if d := Diff(a, longer, 5); !strings.Contains(d, "(none)") {
		t.Fatalf("Diff of mismatched lengths = %q", d)
	}
}

func TestValueAt(t *testing.T) {
	w := Waveform{
		{2, 0, logic.One},
		{4, 1, logic.One},
		{6, 0, logic.Zero},
	}
	if v := w.ValueAt(0, 1, logic.U); v != logic.U {
		t.Fatalf("before first change: %v", v)
	}
	if v := w.ValueAt(0, 2, logic.U); v != logic.One {
		t.Fatalf("at change: %v", v)
	}
	if v := w.ValueAt(0, 5, logic.U); v != logic.One {
		t.Fatalf("between changes: %v", v)
	}
	if v := w.ValueAt(0, 100, logic.U); v != logic.Zero {
		t.Fatalf("after last change: %v", v)
	}
	if v := w.ValueAt(1, 100, logic.U); v != logic.One {
		t.Fatalf("other gate: %v", v)
	}
}

func TestWriteVCD(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	n := b.Gate(circuit.Not, "n1", a)
	y := b.Output("y", n)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := Waveform{
		{1, y, logic.One},
		{3, y, logic.Zero},
		{3, a, logic.One},
		{9, y, logic.Z},
		{12, y, logic.W},
	}
	var sb strings.Builder
	if err := WriteVCD(&sb, c, []circuit.GateID{a, y}, w, ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$var wire 1 ! a $end",
		"$var wire 1 \" y $end",
		"#1", "#3", "#9", "#12",
		"1\"", "0\"", "z\"", "x\"", "1!",
		"$dumpvars",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
}

func TestVCDCodeUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		code := vcdCode(i)
		if seen[code] {
			t.Fatalf("duplicate VCD code %q at %d", code, i)
		}
		seen[code] = true
		for _, ch := range code {
			if ch < '!' || ch > '~' {
				t.Fatalf("code %q contains non-printable %q", code, ch)
			}
		}
	}
}
