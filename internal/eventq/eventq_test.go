package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

var impls = []struct {
	name string
	mk   func() Queue[int]
}{
	{"heap", func() Queue[int] { return NewHeap[int]() }},
	{"calendar", func() Queue[int] { return NewCalendar[int]() }},
	{"wheel16", func() Queue[int] { return NewWheel[int](16) }},
	{"wheel2", func() Queue[int] { return NewWheel[int](2) }},
}

func TestImplString(t *testing.T) {
	if ImplHeap.String() != "heap" || ImplCalendar.String() != "calendar" ||
		ImplWheel.String() != "wheel" {
		t.Fatal("Impl names wrong")
	}
	if Impl(9).String() != "Impl(9)" {
		t.Fatal("unknown impl name wrong")
	}
}

func TestNewDispatch(t *testing.T) {
	if _, ok := New[int](ImplHeap).(*Heap[int]); !ok {
		t.Error("New(ImplHeap) wrong type")
	}
	if _, ok := New[int](ImplCalendar).(*Calendar[int]); !ok {
		t.Error("New(ImplCalendar) wrong type")
	}
	if _, ok := New[int](ImplWheel).(*Wheel[int]); !ok {
		t.Error("New(ImplWheel) wrong type")
	}
	if _, ok := New[int](Impl(200)).(*Heap[int]); !ok {
		t.Error("New(unknown) should default to heap")
	}
}

func TestEmptyQueues(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		if q.Len() != 0 {
			t.Errorf("%s: empty Len != 0", im.name)
		}
		if _, ok := q.PeekTime(); ok {
			t.Errorf("%s: empty PeekTime ok", im.name)
		}
		if _, _, ok := q.PopMin(); ok {
			t.Errorf("%s: empty PopMin ok", im.name)
		}
	}
}

func TestSingleElement(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		q.Push(42, 7)
		if q.Len() != 1 {
			t.Errorf("%s: Len = %d", im.name, q.Len())
		}
		if tm, ok := q.PeekTime(); !ok || tm != 42 {
			t.Errorf("%s: PeekTime = %d,%v", im.name, tm, ok)
		}
		tm, v, ok := q.PopMin()
		if !ok || tm != 42 || v != 7 {
			t.Errorf("%s: PopMin = %d,%d,%v", im.name, tm, v, ok)
		}
		if q.Len() != 0 {
			t.Errorf("%s: Len after pop = %d", im.name, q.Len())
		}
	}
}

func TestAscendingOrder(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		times := []uint64{5, 1, 9, 3, 3, 7, 0, 100, 2, 2}
		for i, tm := range times {
			q.Push(tm, i)
		}
		var got []uint64
		for {
			tm, _, ok := q.PopMin()
			if !ok {
				break
			}
			got = append(got, tm)
		}
		if len(got) != len(times) {
			t.Fatalf("%s: popped %d of %d", im.name, len(got), len(times))
		}
		want := append([]uint64(nil), times...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pop %d = %d, want %d", im.name, i, got[i], want[i])
			}
		}
	}
}

func TestPushEqualToLastPop(t *testing.T) {
	// Scheduling at exactly the current time is legal (same-timestep
	// events from sibling gates).
	for _, im := range impls {
		q := im.mk()
		q.Push(10, 0)
		q.PopMin()
		q.Push(10, 1)
		tm, v, ok := q.PopMin()
		if !ok || tm != 10 || v != 1 {
			t.Errorf("%s: pop = %d,%d,%v", im.name, tm, v, ok)
		}
	}
}

// TestModelConformance drives each implementation with a random
// interleaving of operations and compares it against a sorted-slice model.
func TestModelConformance(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				q := im.mk()
				var model []uint64 // multiset of pending times
				floor := uint64(0) // last popped time
				next := 0
				for op := 0; op < 2000; op++ {
					if rng.Intn(3) != 0 || len(model) == 0 {
						// Push with simulator-like locality: close to floor.
						tm := floor + uint64(rng.Intn(50))
						q.Push(tm, next)
						next++
						model = append(model, tm)
					} else {
						wantLen := len(model)
						if q.Len() != wantLen {
							t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), wantLen)
						}
						sort.Slice(model, func(a, b int) bool { return model[a] < model[b] })
						want := model[0]
						model = model[1:]
						if pk, ok := q.PeekTime(); !ok || pk != want {
							t.Fatalf("seed %d op %d: PeekTime = %d,%v want %d", seed, op, pk, ok, want)
						}
						got, _, ok := q.PopMin()
						if !ok || got != want {
							t.Fatalf("seed %d op %d: PopMin = %d,%v want %d", seed, op, got, ok, want)
						}
						floor = got
					}
				}
				// Drain and verify the tail is fully sorted and complete.
				sort.Slice(model, func(a, b int) bool { return model[a] < model[b] })
				for i, want := range model {
					got, _, ok := q.PopMin()
					if !ok || got != want {
						t.Fatalf("seed %d drain %d: got %d,%v want %d", seed, i, got, ok, want)
					}
				}
				if q.Len() != 0 {
					t.Fatalf("seed %d: queue not empty after drain", seed)
				}
			}
		})
	}
}

// TestValuesSurviveIntact checks payloads are not mixed up across pops.
func TestValuesSurviveIntact(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		byTime := map[uint64]map[int]bool{}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 500; i++ {
			tm := uint64(rng.Intn(64))
			q.Push(tm, i)
			if byTime[tm] == nil {
				byTime[tm] = map[int]bool{}
			}
			byTime[tm][i] = true
		}
		for {
			tm, v, ok := q.PopMin()
			if !ok {
				break
			}
			if !byTime[tm][v] {
				t.Fatalf("%s: payload %d popped at wrong time %d", im.name, v, tm)
			}
			delete(byTime[tm], v)
		}
		for tm, vs := range byTime {
			if len(vs) > 0 {
				t.Fatalf("%s: events lost at time %d: %v", im.name, tm, vs)
			}
		}
	}
}

// TestLargeTimeJumps exercises calendar resizing and wheel overflow.
func TestLargeTimeJumps(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		times := []uint64{0, 1 << 30, 1 << 20, 5, 1 << 40, 1000}
		for i, tm := range times {
			q.Push(tm, i)
		}
		sorted := append([]uint64(nil), times...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		for i, want := range sorted {
			got, _, ok := q.PopMin()
			if !ok || got != want {
				t.Fatalf("%s: pop %d = %d,%v want %d", im.name, i, got, ok, want)
			}
		}
	}
}

// TestInterleavedPushPopMonotonic simulates the hold-and-advance pattern of
// an event-driven engine: pop a timestep, push into the near future.
func TestInterleavedPushPopMonotonic(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		q.Push(0, 0)
		last := uint64(0)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 5000 && q.Len() > 0; i++ {
			tm, _, _ := q.PopMin()
			if tm < last {
				t.Fatalf("%s: time went backwards %d -> %d", im.name, last, tm)
			}
			last = tm
			if rng.Intn(10) > 0 {
				q.Push(tm+uint64(1+rng.Intn(8)), i)
			}
			if rng.Intn(4) == 0 {
				q.Push(tm+uint64(1+rng.Intn(300)), i)
			}
		}
	}
}

// benchQueue is the classic hold model: keep ~1k pending events, pop one
// push one, each push up to spread ticks ahead.
func benchQueue(b *testing.B, q Queue[int], spread int) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		q.Push(uint64(rng.Intn(1000)), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, _, _ := q.PopMin()
		q.Push(tm+uint64(1+rng.Intn(spread)), i)
	}
}

func BenchmarkHeapHold(b *testing.B)     { benchQueue(b, NewHeap[int](), 16) }
func BenchmarkCalendarHold(b *testing.B) { benchQueue(b, NewCalendar[int](), 16) }
func BenchmarkWheelHold(b *testing.B)    { benchQueue(b, NewWheel[int](256), 16) }

// BenchmarkHeapHoldDistinct is the heap's worst case: the spread is so
// wide that every pending time is distinct, so no push finds its time
// open and every pop closes an entry.
func BenchmarkHeapHoldDistinct(b *testing.B) { benchQueue(b, NewHeap[int](), 1<<20) }

// TestPeekMatchesPop checks Peek returns exactly what PopMin would.
func TestPeekMatchesPop(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			q.Push(uint64(rng.Intn(100)), i)
		}
		for q.Len() > 0 {
			pt, pv, pok := q.Peek()
			gt, gv, gok := q.PopMin()
			if !pok || !gok || pt != gt || pv != gv {
				t.Fatalf("%s: Peek (%d,%d,%v) != Pop (%d,%d,%v)", im.name, pt, pv, pok, gt, gv, gok)
			}
		}
		if _, _, ok := q.Peek(); ok {
			t.Fatalf("%s: Peek on empty ok", im.name)
		}
	}
}

// TestResetFloorAllowsRollbackPattern models Time Warp: pop forward, then
// requeue into the past after ResetFloor, and verify ordering still holds.
func TestResetFloorAllowsRollbackPattern(t *testing.T) {
	for _, im := range impls {
		q := im.mk()
		rng := rand.New(rand.NewSource(9))
		model := map[int]uint64{}
		next := 0
		floor := uint64(0)
		var popped []struct {
			t uint64
			v int
		}
		for op := 0; op < 4000; op++ {
			switch {
			case rng.Intn(4) == 0 && len(popped) > 4:
				// Rollback: requeue the last few popped events.
				q.ResetFloor()
				k := 1 + rng.Intn(4)
				for i := 0; i < k && len(popped) > 0; i++ {
					last := popped[len(popped)-1]
					popped = popped[:len(popped)-1]
					q.Push(last.t, last.v)
					model[last.v] = last.t
				}
				if len(popped) > 0 {
					floor = popped[len(popped)-1].t
				} else {
					floor = 0
				}
			case rng.Intn(2) == 0 || q.Len() == 0:
				tm := floor + uint64(rng.Intn(30))
				q.Push(tm, next)
				model[next] = tm
				next++
			default:
				tm, v, ok := q.PopMin()
				if !ok {
					t.Fatalf("%s: empty pop with %d modeled", im.name, len(model))
				}
				want, inModel := model[v]
				if !inModel || want != tm {
					t.Fatalf("%s: popped (%d,%d), model says %d,%v", im.name, tm, v, want, inModel)
				}
				// Must be the global minimum.
				for _, mt := range model {
					if mt < tm {
						t.Fatalf("%s: popped %d but %d pending", im.name, tm, mt)
					}
				}
				delete(model, v)
				popped = append(popped, struct {
					t uint64
					v int
				}{tm, v})
				floor = tm
			}
		}
	}
}
