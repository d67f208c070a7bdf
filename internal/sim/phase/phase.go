// Package phase is the fork/join barrier under every barrier-synchronous
// engine: the synchronous engine's apply and evaluate phases, the
// oblivious engine's level sweep, and Time Warp's intra-cluster
// evaluation (kernel.StepParallel, the hybrid engine) all run a phase on
// every worker and then meet at one barrier.
//
// A Pool keeps its helpers for the whole run, parked on their own wake
// channels between phases, so a phase costs a wake-up per part rather than
// a goroutine start. The caller only dispatches and waits: the last helper
// it wakes runs only once the caller blocks, so a caller that ran a part
// itself would hold that helper back (DESIGN.md, "One phase pool").
package phase

import (
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/sim/supervise"
)

// Pool is a fixed set of persistent helpers running one body.
type Pool struct {
	engine string
	sink   *metrics.Registry
	wake   []chan struct{}
	// done is the barrier: the last part to finish wakes the caller, once
	// per phase.
	done   sync.WaitGroup
	failed atomic.Pointer[supervise.SimError]
	exited sync.WaitGroup

	// The current phase, written by Run before it wakes the helpers; the
	// wake send orders the write before every helper's read.
	t     circuit.Tick
	name  string
	parts int
}

// New starts size helpers, each running body(part, parts) for its own
// part whenever Run releases it. engine labels panics and pprof samples;
// sink decides whether pprof labels are set.
func New(size int, engine string, sink *metrics.Registry, body func(part, parts int)) *Pool {
	p := &Pool{engine: engine, sink: sink, wake: make([]chan struct{}, size)}
	p.exited.Add(size)
	for part := range p.wake {
		p.wake[part] = make(chan struct{}, 1)
		// Bound once, so a phase allocates no closure.
		f := func() { body(part, p.parts) }
		go p.helper(part, f)
	}
	return p
}

// helper runs its part each time it is woken, until Close.
func (p *Pool) helper(part int, f func()) {
	defer p.exited.Done()
	for range p.wake[part] {
		p.runPart(part, f)
	}
}

// runPart runs one part and arrives at the barrier. A panic is latched as
// the phase's failure, so the barrier always completes.
func (p *Pool) runPart(part int, f func()) {
	defer p.done.Done()
	defer func() {
		if r := recover(); r != nil {
			p.failed.CompareAndSwap(nil, supervise.FromPanic(p.engine, part, p.name, p.t, r))
		}
	}()
	metrics.Do(p.sink, p.engine, part, p.name, f)
}

// Size reports the number of helpers.
func (p *Pool) Size() int { return len(p.wake) }

// Run releases helpers 0..parts-1 on phase name at modeled time t and
// waits for all of them. parts must not exceed the pool's size. It
// returns the first panic a part raised, as a KindPanic SimError; every
// other part still runs to completion.
func (p *Pool) Run(t circuit.Tick, name string, parts int) error {
	p.t, p.name, p.parts = t, name, parts
	p.done.Add(parts)
	for part := 0; part < parts; part++ {
		p.wake[part] <- struct{}{}
	}
	p.done.Wait()
	if err := p.failed.Swap(nil); err != nil {
		return err
	}
	return nil
}

// Close ends the helpers and waits for them to exit. It is safe on a nil
// pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	for _, ch := range p.wake {
		close(ch)
	}
	p.exited.Wait()
}
