package opt

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

var update = flag.Bool("update", false, "rewrite testdata/optimize.golden from the current optimizer")

// goldenPath holds, per circuit and pass list, the run's Stats and a
// SHA-256 of the optimized netlist (gates in ID order) and of the Remap:
// the optimizer must give the same netlist with the same numbering.
var goldenPath = filepath.Join("testdata", "optimize.golden")

// netlistText renders a circuit with its numbering: every gate's ID,
// name, kind, delay and fanin IDs in ID order, then the I/O lists.
func netlistText(c *circuit.Circuit) string {
	var sb strings.Builder
	for id, k := range c.Kinds {
		g := circuit.GateID(id)
		fmt.Fprintf(&sb, "%d %s %v %d %v\n", id, c.Name(g), k, c.Delays[g], c.FaninAdj.Row(g))
	}
	fmt.Fprintf(&sb, "in %v\nout %v\n", c.Inputs, c.Outputs)
	return sb.String()
}

func goldenLines(t *testing.T) string {
	t.Helper()
	load := func(name string, delays gen.DelaySpec) func() (*circuit.Circuit, error) {
		return func() (*circuit.Circuit, error) { return gen.ByName(name, delays, 1) }
	}
	circuits := []struct {
		name string
		load func() (*circuit.Circuit, error)
	}{
		{"c17", load("c17", gen.Unit)},
		{"s27", load("s27", gen.Unit)},
		{"dag2000", load("dag2000", gen.Fine(4, 1))},
		{"seq4000", load("seq4000", gen.Unit)},
		// optFixture is the one circuit here with constants, so the only
		// one constprop rewrites.
		{"fixture", func() (*circuit.Circuit, error) { return optFixture(t), nil }},
	}
	runs := [][]string{nil}
	for _, p := range AllPasses {
		runs = append(runs, []string{p})
	}
	var sb strings.Builder
	for _, cc := range circuits {
		c, err := cc.load()
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		for _, passes := range runs {
			label := "default"
			if passes != nil {
				label = passes[0]
			}
			res, err := Optimize(c, Options{Passes: passes})
			if err != nil {
				t.Fatalf("%s %s: %v", cc.name, label, err)
			}
			stats, err := json.Marshal(res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			remap := fmt.Sprintf("fwd %v\nback %v\n", res.Remap.Fwd, res.Remap.Back)
			fmt.Fprintf(&sb, "%s %s %s netlist=%x remap=%x\n", cc.name, label, stats,
				sha256.Sum256([]byte(netlistText(res.Circuit))), sha256.Sum256([]byte(remap)))
		}
	}
	return sb.String()
}

// TestOptimizeGolden pins every pass's output netlist, numbering, remap
// and statistics on five circuits against testdata/optimize.golden.
func TestOptimizeGolden(t *testing.T) {
	got := goldenLines(t)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
}
