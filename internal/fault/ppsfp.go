package fault

import (
	"fmt"
	"math/bits"
	"slices"
	gosync "sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim/supervise"
)

// GradeBitParallel grades stuck-at faults on a combinational circuit with
// parallel-pattern single-fault propagation (PPSFP): the good circuit and
// each faulty circuit are evaluated on 64 patterns at once on the wide
// (logic.Word) plane every wide engine runs on, and detected faults are
// dropped from later passes. This is the word-level data parallelism of
// the paper's taxonomy layered under the fault-level data parallelism of
// Run: patterns fill the lanes, faults fan out across workers.
//
// patterns[k][i] is the value of input i (circuit.Inputs order) under
// pattern k. The returned detections carry the index of the first
// detecting pattern in the Time field.
func GradeBitParallel(c *circuit.Circuit, patterns [][]bool, faults []Fault, workers int) (*Result, error) {
	if err := check(c, faults); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	order, err := sweepOrder(c)
	if err != nil {
		return nil, err
	}
	for k, pat := range patterns {
		if len(pat) != len(c.Inputs) {
			return nil, fmt.Errorf("fault: pattern %d has %d values for %d inputs", k, len(pat), len(c.Inputs))
		}
	}
	// after[g] is where the sweep below a stuck g starts: just past g in
	// the order, or at its start for a source. Nothing before it reads g.
	after := make([]int, len(c.Kinds))
	for i, g := range order {
		after[g] = i + 1
	}
	// The good plane, and one faulty plane per worker. The clock-sample
	// plane is read-only for combinational gates, so all of them share it.
	good, prevClk := circuit.InitStateWide(c, logic.TwoValued)
	planes := make([][]logic.Word, workers)
	for w := range planes {
		planes[w] = make([]logic.Word, len(good))
	}

	remaining := append([]Fault(nil), faults...)
	firstPattern := make(map[Fault]int, len(faults))

	// A panicking worker is recovered into the campaign's first error; the
	// per-pass barrier (wg.Wait) always completes because Done is deferred.
	var failMu gosync.Mutex
	var failErr error
	setFail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
		}
		failMu.Unlock()
	}

	goodOut := make([]uint64, len(c.Outputs))
	for base := 0; base < len(patterns) && len(remaining) > 0; base += logic.Lanes {
		batch := patterns[base:min(base+logic.Lanes, len(patterns))]
		mask := pack(c, batch, good)
		sweep(c, order, good, prevClk)
		for i, o := range c.Outputs {
			goodOut[i], _ = good[o].Bits()
		}

		// Fan the remaining faults across the workers.
		type hit struct {
			idx     int // index into remaining
			pattern int // absolute index of the first detecting pattern
		}
		hitsCh := make(chan []hit, workers)
		var wg gosync.WaitGroup
		chunk := (len(remaining) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(remaining) {
				break
			}
			end := min(lo+chunk, len(remaining))
			wg.Add(1)
			go func(w, lo, end int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						setFail(supervise.FromPanic("ppsfp", w, "ppsfp", 0, r))
					}
				}()
				var hits []hit
				val := planes[w]
				for fi := lo; fi < end; fi++ {
					// The faulty circuit differs from the good one only
					// below the stuck net, so the sweep starts there.
					f := remaining[fi]
					copy(val, good)
					val[f.Gate] = logic.Splat(f.StuckAt)
					sweep(c, order[after[f.Gate]:], val, prevClk)
					var diff uint64
					for i, o := range c.Outputs {
						ones, _ := val[o].Bits()
						diff |= (ones ^ goodOut[i]) & mask
					}
					if diff != 0 {
						hits = append(hits, hit{fi, base + bits.TrailingZeros64(diff)})
					}
				}
				hitsCh <- hits
			}(w, lo, end)
		}
		wg.Wait()
		close(hitsCh)
		failMu.Lock()
		ferr := failErr
		failMu.Unlock()
		if ferr != nil {
			return nil, ferr
		}

		drop := map[int]int{}
		for hits := range hitsCh {
			for _, h := range hits {
				drop[h.idx] = h.pattern
			}
		}
		if len(drop) > 0 {
			kept := remaining[:0]
			for i, f := range remaining {
				if pat, hit := drop[i]; hit {
					firstPattern[f] = pat
				} else {
					kept = append(kept, f)
				}
			}
			remaining = kept
		}
	}

	res := &Result{Total: len(faults), Detected: len(firstPattern)}
	for f, pat := range firstPattern {
		res.Detections = append(res.Detections, Detection{Fault: f, Time: circuit.Tick(pat)})
	}
	slices.SortFunc(res.Detections, compareDetections)
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res, nil
}

// sweepOrder is the order a sweep evaluates c in: its levelization.
// Circuits PPSFP cannot grade are refused: state elements, and gates whose
// values are not two-valued.
func sweepOrder(c *circuit.Circuit) ([]circuit.GateID, error) {
	for id, k := range c.Kinds {
		switch k {
		case circuit.DFF, circuit.DLatch:
			return nil, fmt.Errorf("fault: PPSFP handles combinational circuits; gate %q is a %v", c.Name(circuit.GateID(id)), k)
		case circuit.Tri, circuit.Resolve, circuit.ConstX:
			return nil, fmt.Errorf("fault: PPSFP is two-valued; gate %q (%v) is not", c.Name(circuit.GateID(id)), k)
		}
	}
	return slices.Concat(c.Levels...), nil
}

// pack drives a batch of at most logic.Lanes patterns onto the inputs of
// val, pattern k in lane k, and returns the mask of the lanes it fills.
func pack(c *circuit.Circuit, batch [][]bool, val []logic.Word) uint64 {
	for i, in := range c.Inputs {
		var lanes uint64
		for k, pat := range batch {
			if pat[i] {
				lanes |= 1 << k
			}
		}
		val[in] = logic.PackBits(lanes)
	}
	return ^uint64(0) >> (logic.Lanes - len(batch))
}

// sweep settles val over the given order, every gate through
// circuit.EvalGateWide.
func sweep(c *circuit.Circuit, order []circuit.GateID, val, prevClk []logic.Word) {
	for _, g := range order {
		val[g], _ = circuit.EvalGateWide(c, g, val, val, prevClk)
	}
}
