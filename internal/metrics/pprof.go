package metrics

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// Do runs f with goroutine pprof labels attributing CPU samples to
// engine/lp/phase, so `go tool pprof -tags` splits a profile by logical
// process and synchronization role. When the registry has labeling disabled
// (the default) it calls f directly — label maps cost an allocation per
// call, which the barrier engines' phase pool would pay per phase.
//
// lp < 0 labels a non-LP role (coordinator, main loop) with the phase
// only.
//
// The labeling path lives in its own function so that Do's frame stays a
// few words: Do sits at the bottom of every LP goroutine's and phase
// helper's stack, each started on a fresh 2 KiB stack — a fat frame here
// pushes their evaluation chain over the first stack growth, which then
// costs a stack copy per goroutine.
func Do(m *Registry, engine string, lp int, phase string, f func()) {
	if m == nil || !m.PProfEnabled() {
		f()
		return
	}
	doLabeled(engine, lp, phase, f)
}

func doLabeled(engine string, lp int, phase string, f func()) {
	var labels pprof.LabelSet
	if lp >= 0 {
		labels = pprof.Labels("engine", engine, "lp", strconv.Itoa(lp), "phase", phase)
	} else {
		labels = pprof.Labels("engine", engine, "phase", phase)
	}
	pprof.Do(context.Background(), labels, func(context.Context) { f() })
}
