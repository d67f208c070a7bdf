// Package chaos holds the delta-debugging shrinker the randomized
// harnesses share, above its two fault sources: inject, the seeded
// in-process plans (message delays, batch splits, cross-sender reorders,
// LP stalls) that the differential harness's chaos arm runs every
// asynchronous engine under, and netfault, the socket fleet's link
// faults.
//
// Shrinking needs a deterministic verdict per subset. A plan is a pure
// function of its seed, and the checks that catch a broken protocol fire
// at the transport, where they do not depend on the schedule. Which
// faults happen to fire can vary with runtime scheduling (batch
// boundaries are timing-dependent); verdicts never derive from it.
package chaos

import "repro/internal/simtest/chaos/inject"

// Shrink reduces a failing plan to a small failing subset of its fault
// indices with delta debugging (ddmin). run must be a deterministic
// predicate over plan subsets — the same subset must fail the same way on
// every call — which holds for this harness because verdicts are
// schedule-independent (see the package comment). fullFailure is the
// failure already observed on the complete plan; budget caps the number
// of probe runs.
//
// The empty subset is probed first: an engine broken independently of the
// injected faults (the interesting kind of finding) fails with no faults
// at all, and that is the smallest possible repro.
func Shrink(plan inject.Plan, fullFailure string, run func(inject.Plan) string, budget int) ([]int, string) {
	return ShrinkIndices(len(plan), fullFailure, func(idx []int) (bool, string) {
		sub := make(inject.Plan, 0, len(idx))
		for _, i := range idx {
			sub = append(sub, plan[i])
		}
		f := run(sub)
		return f != "", f
	}, budget)
}

// ShrinkIndices is the ddmin core underneath Shrink, generalized to any
// failure predicate over subsets of the indices [0, n): it is also reused
// by the differential harness to minimize failing lane sets and optimizer
// pass subsets.
// fails must be deterministic over subsets; budget caps its invocations.
func ShrinkIndices(size int, fullFailure string, failsFn func([]int) (bool, string), budget int) ([]int, string) {
	probes := 0
	fails := func(idx []int) (bool, string) {
		if probes >= budget {
			return false, ""
		}
		probes++
		return failsFn(idx)
	}

	if ok, f := fails(nil); ok {
		return []int{}, f
	}

	cur := allIndices(size)
	curFailure := fullFailure
	n := 2
	for len(cur) >= 2 && probes < budget {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		// Try each chunk alone.
		for i := 0; i < len(cur) && !reduced; i += chunk {
			subset := cur[i:min(i+chunk, len(cur))]
			if ok, f := fails(subset); ok {
				cur = append([]int(nil), subset...)
				curFailure = f
				n = 2
				reduced = true
			}
		}
		// Then each chunk's complement.
		if !reduced && n > 2 {
			for i := 0; i < len(cur) && !reduced; i += chunk {
				comp := append([]int(nil), cur[:i]...)
				comp = append(comp, cur[min(i+chunk, len(cur)):]...)
				if ok, f := fails(comp); ok {
					cur = comp
					curFailure = f
					n = max(n-1, 2)
					reduced = true
				}
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(2*n, len(cur))
		}
	}
	return cur, curFailure
}

// allIndices returns [0, n).
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
