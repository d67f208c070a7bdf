// Package golden pins the exact committed waveforms of three small named
// circuits as on-disk fixtures, and requires every engine to reproduce
// them bit-exactly. Unlike the randomized differential harness (package
// differ), these fixtures are stable across runs and committed to the
// repository, so a regression in any engine — or in shared hot-path code
// like event pooling and message batching — fails against a known-good
// history rather than against a concurrently-computed reference.
//
// Regenerate with: go test ./internal/simtest/golden/ -run Golden -update
// (only legitimate semantic changes should ever require it).
package golden

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/trace"
	"repro/internal/vectors"
)

var update = flag.Bool("update", false, "rewrite the golden waveform fixtures")

// fixture is one named circuit+stimulus workload. Cycle-based replays
// (oblivious, and the lane-per-cycle bit-parallel one) are compared at
// cycleSampleTime of each cycle: the committed values of the watched nets
// there must match the golden "cyc" rows.
type fixture struct {
	name  string
	build func() (*circuit.Circuit, *vectors.Stimulus, error)
	// cycles is the clock-cycle count (sequential) or vector count
	// (combinational); period is the boundary spacing in ticks.
	cycles int
	period circuit.Tick
}

var fixtures = []fixture{
	{
		name: "rippleadder",
		build: func() (*circuit.Circuit, *vectors.Stimulus, error) {
			c, err := gen.RippleAdder(4, gen.Unit)
			if err != nil {
				return nil, nil, err
			}
			stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 8, Period: 20, Activity: 0.5, Seed: 3})
			return c, stim, err
		},
		cycles: 9, // t=0 assignment plus 8 vectors
		period: 20,
	},
	{
		name: "lfsr",
		build: func() (*circuit.Circuit, *vectors.Stimulus, error) {
			c, err := gen.LFSR(5, nil, gen.Unit)
			if err != nil {
				return nil, nil, err
			}
			stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 8, HalfPeriod: 10, Activity: 0.3, Seed: 4})
			return c, stim, err
		},
		cycles: 8,
		period: 20,
	},
	{
		name: "counter",
		build: func() (*circuit.Circuit, *vectors.Stimulus, error) {
			c, err := gen.Counter(4, gen.Unit)
			if err != nil {
				return nil, nil, err
			}
			stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 10, HalfPeriod: 10, Activity: 0.4, Seed: 5})
			return c, stim, err
		},
		cycles: 10,
		period: 20,
	},
}

// golden is the parsed fixture file.
type golden struct {
	end     circuit.Tick
	init    map[string]logic.Value // committed values after the t=0 settle
	samples []trace.Sample         // gate identified via name index below
	names   []string               // sample gate names, parallel to samples
	finals  map[string]logic.Value
	cyc     map[int]map[string]logic.Value // cycle -> watched name -> value
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden")
}

// cycleSampleTime is the timestamp at which cycle k's settled values are
// read: one tick before the next boundary, so zero-delay (cycle-based)
// engines — which apply a boundary's inputs at the boundary instant —
// and delayed event-driven engines agree on which vector is in force.
func (f *fixture) cycleSampleTime(k int) circuit.Tick {
	return circuit.Tick(k+1)*f.period - 1
}

func writeGolden(t *testing.T, f *fixture, c *circuit.Circuit, g *golden) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# golden waveform fixture %q -- regenerate with -update\n", f.name)
	fmt.Fprintf(&sb, "end %d\n", g.end)
	for _, name := range sortedKeys(g.init) {
		fmt.Fprintf(&sb, "init %s %d\n", name, g.init[name])
	}
	for i, s := range g.samples {
		fmt.Fprintf(&sb, "s %d %s %d\n", s.Time, g.names[i], s.Value)
	}
	for _, name := range sortedKeys(g.finals) {
		fmt.Fprintf(&sb, "final %s %d\n", name, g.finals[name])
	}
	for k := 0; k < f.cycles; k++ {
		for _, name := range sortedKeys(g.cyc[k]) {
			fmt.Fprintf(&sb, "cyc %d %s %d\n", k, name, g.cyc[k][name])
		}
	}
	if err := os.WriteFile(goldenPath(f.name), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(m map[string]logic.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; maps are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func readGolden(t *testing.T, name string, c *circuit.Circuit) *golden {
	t.Helper()
	fh, err := os.Open(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	defer fh.Close()
	g := &golden{
		init:   map[string]logic.Value{},
		finals: map[string]logic.Value{},
		cyc:    map[int]map[string]logic.Value{},
	}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		atoi := func(s string) uint64 {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				t.Fatalf("golden %s: bad number %q: %v", name, s, err)
			}
			return v
		}
		switch fields[0] {
		case "end":
			g.end = circuit.Tick(atoi(fields[1]))
		case "init":
			g.init[fields[1]] = logic.Value(atoi(fields[2]))
		case "s":
			id, ok := c.ByName(fields[2])
			if !ok {
				t.Fatalf("golden %s: unknown gate %q", name, fields[2])
			}
			g.samples = append(g.samples, trace.Sample{
				Time: circuit.Tick(atoi(fields[1])), Gate: id, Value: logic.Value(atoi(fields[3]))})
			g.names = append(g.names, fields[2])
		case "final":
			g.finals[fields[1]] = logic.Value(atoi(fields[2]))
		case "cyc":
			k := int(atoi(fields[1]))
			if g.cyc[k] == nil {
				g.cyc[k] = map[string]logic.Value{}
			}
			g.cyc[k][fields[2]] = logic.Value(atoi(fields[3]))
		default:
			t.Fatalf("golden %s: unknown row %q", name, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return g
}

// runEngine executes one engine on the fixture workload with the shared
// deterministic configuration.
func runEngine(t *testing.T, e core.Engine, c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick) *core.Report {
	t.Helper()
	rep, err := core.Simulate(c, stim, until, core.Options{
		Engine:        e,
		LPs:           4,
		Partition:     partition.MethodFM,
		PartitionSeed: 11,
		System:        logic.TwoValued,
	})
	if err != nil {
		t.Fatalf("%v: %v", e, err)
	}
	return rep
}

// buildGolden derives the full golden record from a sequential run.
func buildGolden(t *testing.T, f *fixture, c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick) *golden {
	t.Helper()
	g := &golden{
		end:    until,
		init:   map[string]logic.Value{},
		finals: map[string]logic.Value{},
		cyc:    map[int]map[string]logic.Value{},
	}
	// Committed values right after the t=0 settling step, the baseline for
	// reconstructing watched values at any later time from the samples.
	rep0 := runEngine(t, core.EngineSeq, c, stim, 0)
	for _, out := range c.Outputs {
		g.init[c.Name(out)] = rep0.Values[out]
	}
	rep := runEngine(t, core.EngineSeq, c, stim, until)
	for _, s := range rep.Waveform {
		g.samples = append(g.samples, s)
		g.names = append(g.names, c.Name(s.Gate))
	}
	for _, out := range c.Outputs {
		g.finals[c.Name(out)] = rep.Values[out]
	}
	for k := 0; k < f.cycles; k++ {
		row := map[string]logic.Value{}
		ts := f.cycleSampleTime(k)
		for _, out := range c.Outputs {
			name := c.Name(out)
			row[name] = rep.Waveform.ValueAt(out, ts, g.init[name])
		}
		g.cyc[k] = row
	}
	return g
}

func compareWaveform(t *testing.T, label string, g *golden, c *circuit.Circuit, rep *core.Report) {
	t.Helper()
	want := make(trace.Waveform, len(g.samples))
	copy(want, g.samples)
	if d := trace.Diff(want, rep.Waveform, 8); d != "" {
		t.Errorf("%s: waveform differs from golden:\n%s", label, d)
	}
	for _, out := range c.Outputs {
		name := c.Name(out)
		if got := rep.Values[out]; got != g.finals[name] {
			t.Errorf("%s: final %s = %v, golden %v", label, name, got, g.finals[name])
		}
	}
}

// eventEngines is every engine that must reproduce the committed waveform
// sample-for-sample.
var eventEngines = []core.Engine{
	core.EngineSeq, core.EngineSync,
	core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect,
	core.EngineTimeWarp, core.EngineTimeWarpLazy,
	core.EngineHybrid,
}

func TestGoldenWaveforms(t *testing.T) {
	for fi := range fixtures {
		f := &fixtures[fi]
		t.Run(f.name, func(t *testing.T) {
			c, stim, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			until := seq.Horizon(c, stim)
			if *update {
				writeGolden(t, f, c, buildGolden(t, f, c, stim, until))
				t.Logf("rewrote %s", goldenPath(f.name))
				return
			}
			g := readGolden(t, f.name, c)
			if g.end != until {
				t.Fatalf("golden horizon %d != computed %d (stale fixture?)", g.end, until)
			}
			for _, e := range eventEngines {
				e := e
				t.Run(e.String(), func(t *testing.T) {
					compareWaveform(t, e.String(), g, c, runEngine(t, e, c, stim, until))
				})
			}
			t.Run("oblivious", func(t *testing.T) {
				rep := runEngine(t, core.EngineOblivious, c, stim, until)
				// Cycle-based: settled values per boundary, no transient
				// waveform. Every boundary and the final state must agree.
				for _, out := range c.Outputs {
					name := c.Name(out)
					if got := rep.Values[out]; got != g.finals[name] {
						t.Errorf("final %s = %v, golden %v", name, got, g.finals[name])
					}
					for k := 0; k < f.cycles; k++ {
						got := rep.Waveform.ValueAt(out, f.cycleSampleTime(k), g.init[name])
						if want := g.cyc[k][name]; got != want {
							t.Errorf("cycle %d %s = %v, golden %v", k, name, got, want)
						}
					}
				}
			})
			t.Run("bitpar", func(t *testing.T) {
				checkLanePerCycle(t, f, c, stim, g, until)
			})
		})
	}
}

// checkLanePerCycle replays the fixture bit-parallel on the 64-lane plane,
// one fixture cycle per lane, through the cycle-based oblivious engine:
// lane k replays the stimulus through cycle k and then holds its inputs,
// so every cycle j of it must match golden row min(j, k). The last lane
// carries the whole stimulus and the finals.
func checkLanePerCycle(t *testing.T, f *fixture, c *circuit.Circuit, stim *vectors.Stimulus, g *golden, until circuit.Tick) {
	t.Helper()
	stims := make([]*vectors.Stimulus, f.cycles)
	for k := range stims {
		n := len(stim.Changes)
		if k < f.cycles-1 {
			n = sort.Search(n, func(i int) bool { return stim.Changes[i].Time > f.cycleSampleTime(k) })
		}
		stims[k] = &vectors.Stimulus{Changes: stim.Changes[:n], End: stim.End}
	}
	lanes, err := vectors.Pack(c, stims, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.SimulateWide(c, lanes, until, core.Options{
		Engine: core.EngineOblivious, LPs: 4, System: logic.TwoValued,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := f.cycles - 1
	for _, out := range c.Outputs {
		name := c.Name(out)
		if got, w := rep.Values[out].Get(last), g.finals[name].ToX01Z(); got != w {
			t.Errorf("lane %d final %s = %v, golden %v", last, name, got, w)
		}
		for k := range stims {
			for cyc := 0; cyc < f.cycles; cyc++ {
				got := trace.WideWaveform(rep.Waveform).ValueAt(out, k, f.cycleSampleTime(cyc), g.init[name])
				if want := g.cyc[min(cyc, k)][name]; got != want {
					t.Errorf("lane %d cycle %d %s = %v, golden %v", k, cyc, name, got, want)
				}
			}
		}
	}
}
