package phase

import (
	"errors"
	"testing"

	"repro/internal/sim/supervise"
)

// TestPanicIsLatched checks that a panicking part fails the phase with a
// KindPanic error naming the engine, the part, the phase and the time,
// that every other part still completes, and that the pool keeps working.
func TestPanicIsLatched(t *testing.T) {
	ran := make([]int, 4)
	p := New(4, "test", nil, func(part, _ int) {
		ran[part]++
		if part == 2 && ran[part] == 1 {
			panic("boom")
		}
	})
	defer p.Close()

	err := p.Run(7, "eval", 4)
	var se *supervise.SimError
	if !errors.As(err, &se) {
		t.Fatalf("Run = %v, want a SimError", err)
	}
	if se.Kind != supervise.KindPanic || se.Engine != "test" || se.LP != 2 || se.Phase != "eval" || se.ModeledTime != 7 {
		t.Fatalf("got %+v, want a panic of part 2 in eval at t=7", se)
	}
	for part, n := range ran {
		if n != 1 {
			t.Fatalf("part %d ran %d times, want 1", part, n)
		}
	}
	if err := p.Run(8, "eval", 4); err != nil {
		t.Fatalf("Run after a panic = %v", err)
	}
}

// TestRunFewerParts checks that Run(parts) releases only helpers
// 0..parts-1, and that each sees the part count.
func TestRunFewerParts(t *testing.T) {
	for _, parts := range []int{1, 2} {
		ran := make([]int, 4)
		p := New(4, "test", nil, func(part, n int) {
			if n != parts {
				panic("wrong part count")
			}
			ran[part]++
		})
		if err := p.Run(0, "eval", parts); err != nil {
			t.Fatal(err)
		}
		p.Close()
		for part, n := range ran {
			if want := btoi(part < parts); n != want {
				t.Fatalf("parts=%d: part %d ran %d times, want %d", parts, part, n, want)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestCloseNilPool(t *testing.T) {
	var p *Pool
	p.Close()
}

// TestWarmRunZeroAllocs pins the barrier itself: with pprof labels off, a
// phase costs channel operations only.
func TestWarmRunZeroAllocs(t *testing.T) {
	sum := make([]int, 2)
	p := New(2, "test", nil, func(part, _ int) { sum[part]++ })
	defer p.Close()
	run := func() {
		if err := p.Run(1, "eval", 2); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if a := testing.AllocsPerRun(200, run); a != 0 {
		t.Fatalf("warm Run allocates %.1f per op, want 0", a)
	}
}
