package gen

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// FuzzGenByName asserts ByName's contract over arbitrary spec strings:
// either a clean error, or a circuit that satisfies every structural
// invariant the engines rely on — no panics, no combinational cycles
// (Levelize succeeds), positive delays (CheckEventDriven), and in-range
// fanin/fanout wiring.
func FuzzGenByName(f *testing.F) {
	for _, seed := range []string{
		"c17", "s27",
		"mul4", "ripple8", "cla6", "lfsr8", "counter5", "shift16", "dag150", "seq200",
		"mul0", "ripple1", "lfsr1", "counter0", "dag1", "seq2",
		"", "c17x", "mul", "17", "mul-4", "mul4x", "MUL4", "dag999999999999999999",
		"ripple08", "zzz12", "c018", "müller4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		// Cap the generator size: huge but well-formed specs ("dag900000")
		// are legitimate requests, just too slow for a fuzz iteration.
		if m := nameRe.FindStringSubmatch(name); m != nil {
			if n, err := strconv.Atoi(m[2]); err == nil && n > 2000 {
				t.Skip("size beyond fuzz budget")
			}
		}
		c, err := ByName(name, Unit, 1)
		if err != nil {
			if c != nil {
				t.Fatalf("ByName(%q) returned both a circuit and error %v", name, err)
			}
			if msg := err.Error(); !strings.HasPrefix(msg, "gen: ") && !strings.HasPrefix(msg, "circuit: ") {
				t.Errorf("ByName(%q) error lacks package prefix: %q", name, msg)
			}
			return
		}
		if c == nil {
			t.Fatalf("ByName(%q) returned nil circuit without error", name)
		}
		if len(c.Kinds) == 0 {
			t.Fatalf("ByName(%q) built an empty circuit", name)
		}
		if len(c.Inputs) == 0 || len(c.Outputs) == 0 {
			t.Fatalf("ByName(%q): %d inputs, %d outputs", name, len(c.Inputs), len(c.Outputs))
		}
		if err := c.CheckEventDriven(); err != nil {
			t.Fatalf("ByName(%q) with unit delays: %v", name, err)
		}
		// Wiring invariants: fanin in range, fanout consistent with fanin.
		for id := range c.Kinds {
			for _, fi := range c.FaninAdj.Row(circuit.GateID(id)) {
				if fi < 0 || int(fi) >= len(c.Kinds) {
					t.Fatalf("ByName(%q): gate %d fanin %d out of range", name, id, fi)
				}
				found := false
				for _, out := range c.FanoutAdj.Row(fi) {
					if out == circuit.GateID(id) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("ByName(%q): gate %d consumes %d but is missing from its fanout", name, id, fi)
				}
			}
		}
	})
}
