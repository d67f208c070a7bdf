package golden

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// wideEventEngines is every wide engine that must reproduce the committed
// waveform sample-for-sample in every lane.
var wideEventEngines = []core.Engine{
	core.EngineSeq, core.EngineSync,
	core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect,
	core.EngineTimeWarp, core.EngineTimeWarpLazy,
	core.EngineHybrid,
}

// goldenLanes are the lanes checked against the fixture: both word edges
// and an interior lane. The stimulus is splatted, so all 64 lanes carry
// the fixture workload; checking three keeps the suite fast while still
// catching lane-indexing bugs at both ends of the word.
var goldenLanes = []int{0, 31, logic.Lanes - 1}

// TestGoldenWaveformsWide replays each golden fixture on the wide (64-lane)
// path of every engine: the scalar fixture stimulus is packed into all 64
// lanes, and each checked lane of the wide run must reproduce the committed
// golden waveform bit-exactly. The same -update flag regenerates the
// underlying fixtures (via TestGoldenWaveforms); this test is skipped
// during an update run since the fixtures are being rewritten.
func TestGoldenWaveformsWide(t *testing.T) {
	if *update {
		t.Skip("fixtures are being rewritten; wide replay uses the committed files")
	}
	for fi := range fixtures {
		f := &fixtures[fi]
		t.Run(f.name, func(t *testing.T) {
			c, stim, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			until := seq.Horizon(c, stim)
			g := readGolden(t, f.name, c)
			if g.end != until {
				t.Fatalf("golden horizon %d != computed %d (stale fixture?)", g.end, until)
			}
			ws, err := vectors.Splat(c, stim, logic.Lanes, logic.TwoValued)
			if err != nil {
				t.Fatal(err)
			}
			init := func(gid circuit.GateID) logic.Value {
				return logic.TwoValued.Project(circuit.InitialValue(c.Kinds[gid]))
			}
			for _, e := range wideEventEngines {
				e := e
				t.Run(e.String(), func(t *testing.T) {
					rep, err := core.SimulateWide(c, ws, until, core.Options{
						Engine:        e,
						LPs:           4,
						Partition:     partition.MethodFM,
						PartitionSeed: 11,
						System:        logic.TwoValued,
					})
					if err != nil {
						t.Fatalf("%v: %v", e, err)
					}
					want := make(trace.Waveform, len(g.samples))
					copy(want, g.samples)
					for _, k := range goldenLanes {
						if d := trace.Diff(want, trace.WideWaveform(rep.Waveform).Lane(k, init), 8); d != "" {
							t.Errorf("lane %d: waveform differs from golden:\n%s", k, d)
						}
						for _, out := range c.Outputs {
							name := c.Name(out)
							if got, w := rep.Values[out].Get(k), g.finals[name].ToX01Z(); got != w {
								t.Errorf("lane %d: final %s = %v, golden %v", k, name, got, w)
							}
						}
					}
				})
			}
			t.Run("oblivious", func(t *testing.T) {
				rep, err := core.SimulateWide(c, ws, until, core.Options{
					Engine: core.EngineOblivious, LPs: 4, System: logic.TwoValued,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Cycle-based: settled values per boundary in every checked
				// lane must match the golden cyc rows.
				for _, out := range c.Outputs {
					name := c.Name(out)
					for _, k := range goldenLanes {
						if got, w := rep.Values[out].Get(k), g.finals[name].ToX01Z(); got != w {
							t.Errorf("lane %d final %s = %v, golden %v", k, name, got, w)
						}
						for cyc := 0; cyc < f.cycles; cyc++ {
							got := trace.WideWaveform(rep.Waveform).ValueAt(out, k, f.cycleSampleTime(cyc), g.init[name])
							if want := g.cyc[cyc][name]; got != want {
								t.Errorf("lane %d cycle %d %s = %v, golden %v", k, cyc, name, got, want)
							}
						}
					}
				}
			})
		})
	}
}
