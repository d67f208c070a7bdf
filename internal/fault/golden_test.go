package fault

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
)

var update = flag.Bool("update", false, "rewrite the PPSFP golden fixtures")

// goldenCampaigns are the committed fault-grading fixtures: fixed circuit,
// fixed patterns, committed detected-fault set. They pin the exact PPSFP
// verdict — total, detected, and per-fault first-detecting pattern — so an
// accidental change to fault collapsing, pattern packing, or detection
// ordering shows up as a fixture diff rather than a silent coverage shift.
//
// Regenerate with: go test ./internal/fault/ -run Golden -update
var goldenCampaigns = []struct {
	name     string
	build    func() (*circuit.Circuit, error)
	patterns func(c *circuit.Circuit) [][]bool
}{
	{
		name:  "c17-exhaustive",
		build: func() (*circuit.Circuit, error) { return bench.MustC17(), nil },
		patterns: func(c *circuit.Circuit) [][]bool {
			var ps [][]bool
			for v := 0; v < 1<<len(c.Inputs); v++ {
				pat := make([]bool, len(c.Inputs))
				for i := range pat {
					pat[i] = v&(1<<i) != 0
				}
				ps = append(ps, pat)
			}
			return ps
		},
	},
	{
		name:     "cla6-random48",
		build:    func() (*circuit.Circuit, error) { return gen.CLAAdder(6, gen.Unit) },
		patterns: func(c *circuit.Circuit) [][]bool { return randomPatterns(c, 48, 7) },
	},
	{
		name:     "mul4-random96",
		build:    func() (*circuit.Circuit, error) { return gen.ArrayMultiplier(4, gen.Unit) },
		patterns: func(c *circuit.Circuit) [][]bool { return randomPatterns(c, 96, 11) },
	},
}

// renderCampaign fixes the fixture text: a header, the summary counts, and
// one line per detection in the grader's (sorted) order.
func renderCampaign(name string, c *circuit.Circuit, nPatterns int, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# PPSFP golden fixture %q -- regenerate with -update\n", name)
	fmt.Fprintf(&b, "patterns=%d total=%d detected=%d coverage=%.4f\n",
		nPatterns, res.Total, res.Detected, res.Coverage)
	for _, d := range res.Detections {
		name := c.Name(d.Fault.Gate)
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(&b, "%v name=%s first=%d\n", d.Fault, name, d.Time)
	}
	return b.String()
}

func TestPPSFPGolden(t *testing.T) {
	for _, tc := range goldenCampaigns {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			faults := Collapse(c, Universe(c))
			patterns := tc.patterns(c)
			res, err := GradeBitParallel(c, patterns, faults, 4)
			if err != nil {
				t.Fatal(err)
			}
			got := renderCampaign(tc.name, c, len(patterns), res)
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("detected-fault set diverged from %s:\n%s", path, diffLines(string(want), got))
			}
		})
	}
}

// diffLines reports the first few differing lines between two fixtures.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, w, g)
		if shown++; shown >= 5 {
			fmt.Fprintf(&b, "  ... (further differences elided)\n")
			break
		}
	}
	return b.String()
}

// TestPPSFPGoldenStability reruns one campaign with a different worker
// count: the fixture text must not depend on scheduling.
func TestPPSFPGoldenStability(t *testing.T) {
	c, err := gen.CLAAdder(6, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	faults := Collapse(c, Universe(c))
	patterns := randomPatterns(c, 48, 7)
	a, err := GradeBitParallel(c, patterns, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GradeBitParallel(c, patterns, faults, 8)
	if err != nil {
		t.Fatal(err)
	}
	ra := renderCampaign("stability", c, len(patterns), a)
	rb := renderCampaign("stability", c, len(patterns), b)
	if ra != rb {
		t.Errorf("worker count changed the verdict:\n%s", diffLines(ra, rb))
	}
}
