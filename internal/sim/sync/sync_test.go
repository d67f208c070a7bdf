package sync

import (
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/simtest"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// TestMatchesSequentialReference is the core equivalence suite: every
// corpus circuit, multiple partitioning methods, multiple LP counts —
// identical waveforms and final values as the sequential engine.
func TestMatchesSequentialReference(t *testing.T) {
	corpus, err := simtest.StandardCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	methods := []partition.Method{partition.MethodRandom, partition.MethodFM, partition.MethodStrings}
	for _, cs := range corpus {
		until := seq.Horizon(cs.C, cs.Stim)
		ref, err := seq.Run(cs.C, cs.Stim, until, seq.Config{System: logic.TwoValued})
		if err != nil {
			t.Fatalf("%s: seq: %v", cs.Name, err)
		}
		for _, m := range methods {
			for _, k := range []int{1, 2, 4, 8} {
				p, err := partition.New(m, cs.C, k, partition.Options{Seed: 11})
				if err != nil {
					t.Fatalf("%s %v k=%d: %v", cs.Name, m, k, err)
				}
				res, err := Run(cs.C, cs.Stim, until, Config{
					Partition: p,
					System:    logic.TwoValued,
				})
				if err != nil {
					t.Fatalf("%s %v k=%d: %v", cs.Name, m, k, err)
				}
				if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
					t.Fatalf("%s %v k=%d waveform mismatch:\n%s", cs.Name, m, k, d)
				}
				for g := range ref.Values {
					if ref.Values[g] != res.Values[g] {
						t.Fatalf("%s %v k=%d: final value mismatch at gate %d: %v vs %v",
							cs.Name, m, k, g, ref.Values[g], res.Values[g])
					}
				}
			}
		}
	}
}

func TestNineValuedMatchesReference(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 200, Inputs: 8, Outputs: 6, Seed: 5, FFRatio: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 15, HalfPeriod: 25, Activity: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, until, Config{Partition: p, System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
		t.Fatalf("9-valued mismatch:\n%s", d)
	}
}

func TestStatsPopulated(t *testing.T) {
	c, err := gen.ArrayMultiplier(5, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 40, Activity: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, seq.Horizon(c, stim), Config{Partition: p, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if len(st.LPs) != 4 {
		t.Fatalf("LP stats count = %d", len(st.LPs))
	}
	total := st.Total()
	if total.Evaluations == 0 || total.EventsApplied == 0 {
		t.Fatalf("no work recorded: %+v", total)
	}
	if total.MessagesSent == 0 || total.MessagesSent != total.MessagesRecv {
		t.Fatalf("message accounting broken: sent=%d recv=%d", total.MessagesSent, total.MessagesRecv)
	}
	if st.Barriers == 0 {
		t.Fatal("no barriers counted")
	}
	if st.ModeledCritical <= 0 {
		t.Fatal("no modeled critical path")
	}
	if st.Wall <= 0 {
		t.Fatal("no wall time")
	}
}

func TestSingleLPDegeneratesToSequentialWork(t *testing.T) {
	c, err := gen.RippleAdder(8, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 15, Period: 50, Activity: 0.6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := partition.New(partition.MethodContiguous, c, 1, partition.Options{})
	res, err := Run(c, stim, until, Config{Partition: p, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Stats.Total()
	if total.Evaluations != ref.Counters.Evaluations {
		t.Fatalf("1-LP evaluations %d != sequential %d", total.Evaluations, ref.Counters.Evaluations)
	}
	if total.MessagesSent != 0 {
		t.Fatalf("1-LP run sent %d messages", total.MessagesSent)
	}
}

func TestMissingPartitionRejected(t *testing.T) {
	c, err := gen.RippleAdder(2, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, _ := vectors.Random(c, vectors.RandomConfig{Vectors: 1, Period: 5, Activity: 1, Seed: 0})
	if _, err := Run(c, stim, 100, Config{}); err == nil {
		t.Fatal("missing partition accepted")
	}
}

func TestMaxEventsEnforced(t *testing.T) {
	c, err := gen.ArrayMultiplier(6, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 50, Period: 30, Activity: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := partition.New(partition.MethodContiguous, c, 2, partition.Options{})
	_, err = Run(c, stim, seq.Horizon(c, stim), Config{Partition: p, System: logic.TwoValued, MaxEvents: 50})
	var se *supervise.SimError
	if !errors.As(err, &se) || se.Kind != supervise.KindEventLimit {
		t.Fatalf("event limit not enforced: got %v", err)
	}
	// The limit is checked between steps against every event applied so
	// far; 50 are exceeded before the step at t=6.
	if se.ModeledTime != 6 {
		t.Fatalf("event limit fired at t=%d, want 6", se.ModeledTime)
	}
}

func TestPartitionForWrongCircuitRejected(t *testing.T) {
	c1, _ := gen.RippleAdder(4, gen.Unit)
	c2, _ := gen.RippleAdder(8, gen.Unit)
	p, _ := partition.New(partition.MethodContiguous, c1, 2, partition.Options{})
	stim, _ := vectors.Random(c2, vectors.RandomConfig{Vectors: 1, Period: 5, Activity: 1, Seed: 0})
	if _, err := Run(c2, stim, 100, Config{Partition: p, System: logic.TwoValued}); err == nil {
		t.Fatal("mismatched partition accepted")
	}
}

func TestWatchInternalNets(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	n1 := b.Gate(circuit.Not, "n1", a)
	n2 := b.Gate(circuit.Not, "n2", n1)
	b.Output("y", n2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stim := &vectors.Stimulus{
		Changes: []vectors.Change{{Time: 0, Input: a, Value: logic.Zero}, {Time: 5, Input: a, Value: logic.One}},
		End:     5,
	}
	p, _ := partition.New(partition.MethodContiguous, c, 2, partition.Options{})
	res, err := Run(c, stim, 100, Config{Partition: p, System: logic.TwoValued, Watch: []circuit.GateID{n1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Waveform {
		if s.Gate != n1 {
			t.Fatalf("unexpected gate %d in waveform", s.Gate)
		}
	}
	if len(res.Waveform) == 0 {
		t.Fatal("internal net not recorded")
	}
}

// TestRebalancingPreservesResults checks that dynamic load balancing is
// semantically invisible: migrated ownership must not change a single
// sample of the waveform.
func TestRebalancingPreservesResults(t *testing.T) {
	corpus, err := simtest.StandardCorpus(53)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range corpus[:6] {
		until := seq.Horizon(cs.C, cs.Stim)
		ref, err := seq.Run(cs.C, cs.Stim, until, seq.Config{System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.New(partition.MethodContiguous, cs.C, 4, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, interval := range []uint64{1, 7, 50} {
			res, err := Run(cs.C, cs.Stim, until, Config{
				Partition: p, System: logic.TwoValued,
				Rebalance: RebalanceConfig{Interval: interval},
			})
			if err != nil {
				t.Fatalf("%s interval=%d: %v", cs.Name, interval, err)
			}
			if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
				t.Fatalf("%s interval=%d: rebalancing changed results:\n%s", cs.Name, interval, d)
			}
			for g := range ref.Values {
				if ref.Values[g] != res.Values[g] {
					t.Fatalf("%s interval=%d: value mismatch at %d", cs.Name, interval, g)
				}
			}
		}
	}
}

// TestRebalancingMovesLoad checks migration actually happens under a
// skewed workload and the load spread narrows.
func TestRebalancingMovesLoad(t *testing.T) {
	b := circuit.NewBuilder()
	in := b.Input("hot")
	prev := in
	for i := 0; i < 200; i++ {
		prev = b.Gate(circuit.Not, getName2("g", i), prev)
	}
	b.Output("y", prev)
	cold := b.Input("cold")
	prevC := cold
	for i := 0; i < 200; i++ {
		prevC = b.Gate(circuit.Not, getName2("h", i), prevC)
	}
	b.Output("z", prevC)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var chs []vectors.Change
	hotID, _ := c.ByName("hot")
	coldID, _ := c.ByName("cold")
	chs = append(chs,
		vectors.Change{Time: 0, Input: hotID, Value: logic.Zero},
		vectors.Change{Time: 0, Input: coldID, Value: logic.Zero})
	for k := 1; k <= 30; k++ {
		chs = append(chs, vectors.Change{Time: circuit.Tick(k) * 800, Input: hotID, Value: logic.FromBool(k%2 == 1)})
	}
	stim := &vectors.Stimulus{Changes: chs, End: 30 * 800}
	stim.Sort()
	p, _ := partition.New(partition.MethodContiguous, c, 2, partition.Options{})
	res, err := Run(c, stim, seq.Horizon(c, stim), Config{
		Partition: p, System: logic.TwoValued,
		Rebalance: RebalanceConfig{Interval: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations under a fully skewed load")
	}
	// Both LPs must end up with meaningful evaluation counts.
	lo, hi := res.Stats.LPs[0].Evaluations, res.Stats.LPs[1].Evaluations
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*5 < hi {
		t.Fatalf("load still skewed after rebalancing: %d vs %d", lo, hi)
	}
}

func getName2(p string, i int) string {
	return p + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}
