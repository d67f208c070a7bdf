package experiments

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

// Figure1 reproduces the paper's only figure: reported speedup on 8
// processors versus number of circuit elements, for the synchronous,
// conservative asynchronous, and optimistic asynchronous algorithms.
//
// The paper's figure aggregates incomparable published implementations;
// this controlled version runs the three algorithms on identical circuits,
// partitions, and vectors, and reports modeled speedups. The trends under
// test: conservative lags, synchronous and optimistic do well, and all
// three improve with circuit size (more concurrent events per timestep).
func Figure1(s Scale) (*Table, error) {
	sizes := []int{200, 1000, 5000}
	vecs := 30
	if s == Full {
		sizes = []int{200, 1000, 5000, 20000, 50000}
		vecs = 60
	}
	const lps = 8
	t := &Table{
		ID:     "F1",
		Title:  "modeled speedup on 8 LPs vs circuit size",
		Claim:  "Figure 1: none of the conservative implementations reported good performance, while a number of synchronous and optimistic implementations performed well",
		Header: []string{"gates", "seq-events", "sync", "cmb", "timewarp"},
	}
	for i, n := range sizes {
		c, err := sizedCircuit(n, int64(100+i), gen.Unit)
		if err != nil {
			return nil, err
		}
		w, err := randomWorkload(c, vecs, 40, 0.5, int64(200+i))
		if err != nil {
			return nil, err
		}
		base, err := baselineFor(w)
		if err != nil {
			return nil, err
		}
		row := []string{d(len(c.Kinds)), d(base.SeqWork.EventsApplied)}
		for _, eng := range []core.Engine{core.EngineSync, core.EngineCMB, core.EngineTimeWarp} {
			sp, _, err := speedupOf(w, base, core.Options{
				Engine: eng, LPs: lps, Partition: partition.MethodFM, PartitionSeed: 1,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f2(sp))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"speedup = modeled sequential time / modeled parallel time (see package stats)",
		"identical circuits, FM partitions, and random vectors across all three algorithms")
	return t, nil
}

// E2Scaling reproduces the synchronous-scaling observation: barrier cost
// grows with the processor population while per-LP work shrinks, so the
// synchronous curve flattens; the asynchronous engines avoid the global
// barrier.
func E2Scaling(s Scale) (*Table, error) {
	n := 2000
	vecs := 25
	if s == Full {
		n = 10000
		vecs = 50
	}
	c, err := sizedCircuit(n, 7, gen.Unit)
	if err != nil {
		return nil, err
	}
	w, err := randomWorkload(c, vecs, 40, 0.5, 7)
	if err != nil {
		return nil, err
	}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E2",
		Title:  "modeled speedup vs LP count",
		Claim:  "synchronous algorithms have difficulty scaling to large numbers of processors since the time required to perform the barrier synchronization grows with processor population",
		Header: []string{"LPs", "sync", "sync-barrier-share", "timewarp", "cmb"},
	}
	for _, lps := range []int{1, 2, 4, 8, 16, 32} {
		row := []string{d(lps)}
		spSync, rep, err := speedupOf(w, base, core.Options{
			Engine: core.EngineSync, LPs: lps, Partition: partition.MethodFM, PartitionSeed: 2,
		})
		if err != nil {
			return nil, err
		}
		row = append(row, f2(spSync))
		// Barrier share of the modeled time.
		m := defaultModel()
		barrier := float64(rep.Metrics.Globals.Barriers) * m.Barrier(lps)
		row = append(row, f2(barrier/rep.Modeled))
		for _, eng := range []core.Engine{core.EngineTimeWarp, core.EngineCMB} {
			sp, _, err := speedupOf(w, base, core.Options{
				Engine: eng, LPs: lps, Partition: partition.MethodFM, PartitionSeed: 2,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f2(sp))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
