package fault

import (
	"fmt"
	gosync "sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim/bitpar"
	"repro/internal/sim/supervise"
)

// GradeBitParallel grades stuck-at faults on a combinational circuit with
// parallel-pattern single-fault propagation (PPSFP): the good circuit and
// each faulty circuit are evaluated on 64 patterns at once using the
// bit-parallel engine, and detected faults are dropped from later passes.
// This is the word-level data parallelism of the paper's taxonomy layered
// under the fault-level data parallelism of Run: patterns fill the bit
// lanes, faults fan out across workers.
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
	if st := c.ComputeStats(); st.FlipFlops > 0 || st.Latches > 0 {
		return nil, fmt.Errorf("fault: PPSFP handles combinational circuits; this one has %d state elements",
			st.FlipFlops+st.Latches)
	}
	good, err := bitpar.New(c)
	if err != nil {
		return nil, err
	}
	sims := make([]*bitpar.Sim, workers)
	for i := range sims {
		if sims[i], err = bitpar.New(c); err != nil {
			return nil, err
		}
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
	for base := 0; base < len(patterns) && len(remaining) > 0; base += 64 {
		hi := base + 64
		if hi > len(patterns) {
			hi = len(patterns)
		}
		packed, err := bitpar.PackPatterns(c, patterns[base:hi])
		if err != nil {
			return nil, err
		}
		mask := packed.Mask()
		good.ApplyAndSettle(packed)
		for i, o := range c.Outputs {
			goodOut[i] = good.Get(o)
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
			end := lo + chunk
			if end > len(remaining) {
				end = len(remaining)
			}
			wg.Add(1)
			go func(w, lo, end int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						setFail(supervise.FromPanic("bitpar", w, "ppsfp", 0, r))
					}
				}()
				var hits []hit
				s := sims[w]
				for fi := lo; fi < end; fi++ {
					f := remaining[fi]
					s.ForceNet(f.Gate, stuckWord(f.StuckAt))
					s.ApplyAndSettle(packed)
					var diff uint64
					for i, o := range c.Outputs {
						diff |= (s.Get(o) ^ goodOut[i]) & mask
					}
					s.ClearForce()
					if diff != 0 {
						hits = append(hits, hit{fi, base + lowestBit(diff)})
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
	sortDetections(res.Detections)
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res, nil
}

// stuckWord is the 64-lane constant for a stuck value.
func stuckWord(v logic.Value) uint64 {
	if v == logic.One {
		return ^uint64(0)
	}
	return 0
}

// lowestBit returns the index of the lowest set bit (diff != 0).
func lowestBit(diff uint64) int {
	n := 0
	for diff&1 == 0 {
		diff >>= 1
		n++
	}
	return n
}

// sortDetections orders by (pattern/time, gate).
func sortDetections(ds []Detection) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0; j-- {
			a, b := ds[j-1], ds[j]
			if b.Time < a.Time || (b.Time == a.Time && b.Fault.Gate < a.Fault.Gate) ||
				(b.Time == a.Time && b.Fault.Gate == a.Fault.Gate && b.Fault.StuckAt < a.Fault.StuckAt) {
				ds[j-1], ds[j] = b, a
			} else {
				break
			}
		}
	}
}
