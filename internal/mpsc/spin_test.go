package mpsc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// kinds are the two mailboxes the LP network builds: spinning in process,
// parking at once in a fleet worker.
var kinds = []struct {
	name string
	new  func() *Mailbox[int]
}{
	{"spinning", func() *Mailbox[int] { return NewSpinning[int](4) }},
	{"parking", func() *Mailbox[int] { return NewCap[int](4) }},
}

// signals are the four ways a sender ends a receiver's wait, each with
// the result WaitDrain must then give.
var signals = []struct {
	name  string
	send  func(m *Mailbox[int])
	items int
	ok    bool
}{
	{"Put", func(m *Mailbox[int]) { m.Put(1) }, 1, true},
	{"PutAll", func(m *Mailbox[int]) { m.PutAll([]int{1, 2}) }, 2, true},
	{"Poke", func(m *Mailbox[int]) { m.Poke() }, 0, true},
	{"Close", func(m *Mailbox[int]) { m.Close() }, 0, false},
}

type drained struct {
	n  int
	ok bool
}

// receive runs one WaitDrain on its own goroutine.
func receive(m *Mailbox[int]) <-chan drained {
	done := make(chan drained, 1)
	go func() {
		buf, ok := m.WaitDrain(nil)
		done <- drained{len(buf), ok}
	}()
	return done
}

func await(t *testing.T, done <-chan drained) drained {
	t.Helper()
	select {
	case d := <-done:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDrain never returned")
		return drained{}
	}
}

func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestWaitDrainWakesOnEverySignal: a receiver inside WaitDrain returns on
// each of Put, PutAll, Poke and Close, with the items and the ok that
// signal gives, both once it has parked and, on a spinning mailbox, while
// it still spins. The spin is bounded by the clock, so a loaded host may
// let it run out before the signal lands; the spinning case retries until
// one wait ends without a park.
func TestWaitDrainWakesOnEverySignal(t *testing.T) {
	for _, k := range kinds {
		for _, sig := range signals {
			t.Run(k.name+"/"+sig.name+"/parked", func(t *testing.T) {
				m := k.new()
				done := receive(m)
				until(t, "the receiver parks", func() bool { return m.Parks() == 1 })
				sig.send(m)
				if d := await(t, done); d.n != sig.items || d.ok != sig.ok {
					t.Fatalf("WaitDrain = %d items, ok=%v; want %d, %v", d.n, d.ok, sig.items, sig.ok)
				}
			})
		}
	}
	for _, sig := range signals {
		t.Run("spinning/"+sig.name+"/spinning", func(t *testing.T) {
			for try := 0; try < 50; try++ {
				m := NewSpinning[int](4)
				done := receive(m)
				until(t, "the receiver waits", m.Waiting)
				sig.send(m)
				if d := await(t, done); d.n != sig.items || d.ok != sig.ok {
					t.Fatalf("WaitDrain = %d items, ok=%v; want %d, %v", d.n, d.ok, sig.items, sig.ok)
				}
				if m.Parks() == 0 {
					return
				}
			}
			t.Fatal("no wait in 50 ended inside the spin")
		})
	}
}

// TestWaitingBracketsWaitDrain: Waiting is true exactly while the
// receiver is inside WaitDrain, spinning or parked, and never for a
// TryDrain.
func TestWaitingBracketsWaitDrain(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			m := k.new()
			if m.Waiting() {
				t.Fatal("Waiting before any drain")
			}
			m.TryDrain(nil)
			if m.Waiting() {
				t.Fatal("Waiting after a TryDrain")
			}
			done := receive(m)
			until(t, "the receiver waits", m.Waiting)
			until(t, "the receiver parks", func() bool { return m.Parks() == 1 })
			if !m.Waiting() {
				t.Fatal("a parked receiver is not Waiting")
			}
			m.Put(7)
			await(t, done)
			if m.Waiting() {
				t.Fatal("Waiting after WaitDrain returned")
			}
			// A wait satisfied at once brackets too: it leaves Waiting false.
			m.Put(8)
			if buf, ok := m.WaitDrain(nil); !ok || len(buf) != 1 || m.Waiting() {
				t.Fatalf("immediate WaitDrain = %v, %v; Waiting=%v", buf, ok, m.Waiting())
			}
		})
	}
}

// TestStickyPokeAndClosedAsBefore: a spinning mailbox gives the parking
// one's results for a poke sent before the wait, and for a closed mailbox
// before and after it empties, without parking for either.
func TestStickyPokeAndClosedAsBefore(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			m := k.new()
			m.Poke()
			m.TryDrain(nil) // a TryDrain leaves the poke for the next wait
			if buf, ok := m.WaitDrain(nil); !ok || len(buf) != 0 {
				t.Fatalf("sticky poke: ok=%v n=%d", ok, len(buf))
			}
			m.Put(1)
			m.Close()
			if buf, ok := m.WaitDrain(nil); !ok || len(buf) != 1 {
				t.Fatalf("first drain after close: ok=%v n=%d", ok, len(buf))
			}
			for i := 0; i < 2; i++ {
				if buf, ok := m.WaitDrain(nil); ok || len(buf) != 0 {
					t.Fatalf("drain %d of a closed, empty mailbox: ok=%v n=%d", i, ok, len(buf))
				}
			}
			if p := m.Parks(); p != 0 {
				t.Fatalf("%d parks; none of these waits may sleep", p)
			}
		})
	}
}

// TestSpinWaitDrainAllocatesNothing: a WaitDrain that a concurrent Put
// satisfies, inside the spin when the host lets it, allocates nothing.
func TestSpinWaitDrainAllocatesNothing(t *testing.T) {
	m := NewSpinning[int](4)
	var stop atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for !stop.Load() {
			if m.Waiting() && m.Len() == 0 {
				m.Put(1)
			}
			runtime.Gosched()
		}
	}()
	buf := make([]int, 0, 8)
	allocs := testing.AllocsPerRun(200, func() {
		buf, _ = m.WaitDrain(buf[:0])
	})
	stop.Store(true)
	m.Poke() // release a wait the producer may have missed
	<-finished
	if allocs != 0 {
		t.Fatalf("WaitDrain allocated %.1f times per call", allocs)
	}
	t.Logf("%d of 201 waits parked", m.Parks())
}
