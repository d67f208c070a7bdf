package ckpt

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/trace"
)

// Cuts configures engine-native checkpoints under one boundary rule: an
// engine cuts at every multiple of Every after its boot boundary (or zero)
// through its horizon, past its last event too, and hands each part to
// Sink once nothing can revise it — on its own goroutines, in boundary
// order per LP; Sink must not block. The cuts are in the run's value
// type, so a wide run cuts exactly as a scalar one does.
type Cuts[V comparable] struct {
	Every circuit.Tick
	Sink  func(*Cut[V])
}

// Never is the boundary of a run that takes no further cut.
const Never = circuit.Tick(^uint64(0))

// First is the first boundary of a run to horizon until that boots from
// boot (nil for a fresh run), or Never when c is nil or the horizon ends
// first.
func First[V comparable](c *Cuts[V], boot *Cut[V], until circuit.Tick) circuit.Tick {
	if c == nil || c.Every == 0 {
		return Never
	}
	var from circuit.Tick
	if boot != nil {
		from = boot.Time
	}
	return c.Next(from/c.Every*c.Every, until)
}

// Next is the boundary after b, or Never past the horizon.
func (c *Cuts[V]) Next(b, until circuit.Tick) circuit.Tick {
	if b > until || c.Every > until-b {
		return Never
	}
	return b + c.Every
}

// PlaneCut is the whole cut at boundary b of an engine that keeps one
// shared plane (seq, sync): copies of the planes, the pending events, and
// the waveform through b behind the boot prefix, with end the last
// executed timestep, or the boot's when that is later.
func PlaneCut[V comparable](b, end circuit.Tick, boot *Cut[V], vals, prevClk, projected []V, events []EventT[V], wave []trace.SampleT[V]) *Cut[V] {
	c := &Cut[V]{
		Time: b, EndTime: end, Events: events, Waveform: wave,
		Vals: slices.Clone(vals), PrevClk: slices.Clone(prevClk), Projected: slices.Clone(projected),
	}
	if boot != nil {
		c.Waveform = append(slices.Clip(boot.Waveform), wave...)
		c.EndTime = max(end, boot.EndTime)
	}
	return c
}

// Writer assembles whole boundaries from the cuts an engine hands in and
// writes them on a goroutine of its own, so no engine goroutine waits on
// the file system. A boundary is whole once its parts cover every gate the
// writer serves; boundaries complete in order, as every LP hands its cuts
// over in boundary order. The snapshot is canonical (events by time then
// gate, the waveform as trace.Sort orders it), so its bytes depend on the
// boundary alone, never on the engine, partition or attempt. In delta mode
// every boundary after a writer's first is a delta on its predecessor, the
// boundary one interval earlier on the deterministic trajectory, so delta
// files, like full ones, safely overwrite a torn-down attempt's copies.
type Writer[V comparable] struct {
	dir   string
	name  func(t uint64, delta bool) string
	delta bool
	head  StateT[V] // the header fields every snapshot shares
	gates int       // the plane size
	cover int       // the gates one boundary's parts cover

	mu    sync.Mutex
	queue []*Cut[V]
	wake  chan struct{}
	done  chan struct{}

	// The writer goroutine's own, read by Finish after done closes.
	open  map[circuit.Tick]*openCut[V]
	last  *StateT[V]
	err   error
	stats WriteStats
}

// openCut is a boundary some parts have been handed in for.
type openCut[V comparable] struct {
	st      *StateT[V]
	covered int
}

// WriteStats is the checkpoint volume a writer wrote: bytes and record
// counts of full snapshots and of delta records.
type WriteStats struct {
	FullBytes, DeltaBytes, Fulls, Deltas uint64
}

// NewWriter starts a writer of the boundaries whose parts cover cover of
// gates gates, with head's header fields (fingerprint, horizon, system).
// Boundary t goes to dir/name(t, delta), a delta record when delta is set
// and the writer holds a predecessor, or to no file when name returns "".
func NewWriter[V comparable](dir string, name func(t uint64, delta bool) string, gates, cover int, delta bool, head StateT[V]) *Writer[V] {
	head.Version = Version
	w := &Writer[V]{
		dir: dir, name: name, delta: delta, head: head, gates: gates, cover: cover,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		open: map[circuit.Tick]*openCut[V]{},
	}
	go w.run()
	return w
}

// Put queues one LP's cut. It runs on the engine goroutines and never
// blocks on the writer.
func (w *Writer[V]) Put(c *Cut[V]) {
	w.mu.Lock()
	w.queue = append(w.queue, c)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Finish drains the writer once the engine, and with it every Put, has
// returned — successfully or not — and reports the first write failure
// and the volume written. A nil writer (checkpointing off) wrote nothing.
func (w *Writer[V]) Finish() (WriteStats, error) {
	if w == nil {
		return WriteStats{}, nil
	}
	close(w.wake)
	<-w.done
	return w.stats, w.err
}

// Last is the newest whole boundary, written or not; valid after Finish.
func (w *Writer[V]) Last() *StateT[V] { return w.last }

func (w *Writer[V]) run() {
	defer close(w.done)
	if w.dir != "" {
		w.err = os.MkdirAll(w.dir, 0o755)
	}
	for more := true; more; {
		_, more = <-w.wake
		w.mu.Lock()
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()
		for _, c := range batch {
			if w.err == nil {
				w.err = w.add(c)
			}
		}
	}
}

// add stitches one LP's part into its boundary and writes the boundary
// once it is whole.
func (w *Writer[V]) add(c *Cut[V]) error {
	oc := w.open[c.Time]
	if oc == nil {
		st := w.head
		st.Time = uint64(c.Time)
		oc = &openCut[V]{st: &st}
		w.open[c.Time] = oc
	}
	st := oc.st
	if c.Gates == nil {
		st.Vals, st.PrevClk, st.Projected = c.Vals, c.PrevClk, c.Projected
		oc.covered += len(c.Vals)
	} else {
		if st.Vals == nil {
			st.Vals = make([]V, w.gates)
			st.PrevClk = make([]V, w.gates)
			st.Projected = make([]V, w.gates)
		}
		for i, g := range c.Gates {
			st.Vals[g], st.PrevClk[g], st.Projected[g] = c.Vals[i], c.PrevClk[i], c.Projected[i]
		}
		oc.covered += len(c.Gates)
	}
	st.Events = append(st.Events, c.Events...)
	st.Waveform = append(st.Waveform, c.Waveform...)
	st.EndTime = max(st.EndTime, uint64(c.EndTime))
	if oc.covered < w.cover {
		return nil
	}
	delete(w.open, c.Time)
	SortEvents(st.Events)
	trace.Sort(st.Waveform)
	return w.write(st)
}

// write persists a whole boundary as a full snapshot or as a delta on the
// previous one.
func (w *Writer[V]) write(st *StateT[V]) error {
	delta := w.delta && w.last != nil
	name := w.name(st.Time, delta)
	switch {
	case name == "":
	case !delta:
		path := filepath.Join(w.dir, name)
		if err := WriteFile(path, st); err != nil {
			return err
		}
		w.stats.FullBytes += fileSize(path)
		w.stats.Fulls++
	default:
		st.Seal()
		d, err := DeltaFrom(w.last, st)
		if err != nil {
			return err
		}
		path := filepath.Join(w.dir, name)
		if err := WriteDeltaFile(path, d); err != nil {
			return err
		}
		w.stats.DeltaBytes += fileSize(path)
		w.stats.Deltas++
	}
	w.last = st
	return nil
}

// SortEvents puts pending events in canonical order: by time, then gate.
func SortEvents[V comparable](evs []EventT[V]) {
	slices.SortFunc(evs, func(a, b EventT[V]) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Gate, b.Gate)
	})
}

// fileSize is best-effort on-disk size accounting for the checkpoint
// volume gauges (0 when unreadable — never an error path).
func fileSize(path string) uint64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return uint64(fi.Size())
}
