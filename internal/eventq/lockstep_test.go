package eventq

import (
	"math/rand"
	"testing"
)

// lockstepQueues builds one queue per implementation, with the wheel sized
// small so pushes routinely land beyond the horizon and exercise the
// overflow heap plus its promotion path (refill).
func lockstepQueues() (names []string, qs []Queue[int]) {
	names = []string{"heap", "calendar", "wheel4"}
	qs = []Queue[int]{NewHeap[int](), NewCalendar[int](), NewWheel[int](4)}
	return
}

// maxBursts caps the equal-time bursts of one operation sequence, so a
// fuzz input of all burst bytes stays fast.
const maxBursts = 3

// driveLockstep feeds the identical operation sequence to every queue and
// requires identical observable behaviour: same Len, same PeekTime, same
// popped time at each pop, and the same payload multiset within each
// timestep (intra-timestep order is unspecified by the Queue contract, so
// payloads are compared per time, not per pop). Every push is legal, so no
// queue may latch an error.
//
// An op byte is a pop (multiples of 3, queue non-empty), a burst of 1000
// pushes on four adjacent times (250 and up, the pattern a logic simulator
// produces), a ResetFloor followed by a push below the last popped time
// (240-249, the Time Warp rollback pattern), or a single push. After every
// op each queue is peeked, which must not disturb it: the timing wheel
// moves its cursor on a peek.
func driveLockstep(t *testing.T, ops []byte) {
	t.Helper()
	names, qs := lockstepQueues()
	floor := uint64(0)
	next := 1
	bursts := 0
	push := func(tm uint64) {
		for _, q := range qs {
			q.Push(tm, next)
		}
		next++
	}
	peekAll := func(opIdx int) {
		wantTime, wantOK := qs[0].PeekTime()
		for i, q := range qs {
			pt, ok := q.PeekTime()
			if ok != wantOK || pt != wantTime {
				t.Fatalf("op %d: %s PeekTime %d,%v, %s PeekTime %d,%v", opIdx, names[0], wantTime, wantOK, names[i], pt, ok)
			}
			if et, _, eok := q.Peek(); eok != ok || et != pt {
				t.Fatalf("op %d: %s Peek time %d,%v != PeekTime %d,%v", opIdx, names[i], et, eok, pt, ok)
			}
		}
	}
	// popped[i][time][payload] counts what queue i returned per timestep.
	popped := make([]map[uint64]map[int]int, len(qs))
	for i := range popped {
		popped[i] = map[uint64]map[int]int{}
	}
	record := func(i int, tm uint64, v int) {
		m := popped[i][tm]
		if m == nil {
			m = map[int]int{}
			popped[i][tm] = m
		}
		m[v]++
	}
	popAll := func(opIdx int) {
		wantLen := qs[0].Len()
		var wantTime uint64
		for i, q := range qs {
			if q.Len() != wantLen {
				t.Fatalf("op %d: %s Len = %d, %s Len = %d", opIdx, names[0], wantLen, names[i], q.Len())
			}
			pk, pkOK := q.PeekTime()
			_, pv, _ := q.Peek()
			tm, v, ok := q.PopMin()
			if !ok {
				t.Fatalf("op %d: %s empty pop with Len %d", opIdx, names[i], wantLen)
			}
			if !pkOK || pk != tm {
				t.Fatalf("op %d: %s PeekTime %d,%v != popped %d", opIdx, names[i], pk, pkOK, tm)
			}
			if pv != v {
				t.Fatalf("op %d: %s Peek payload %d != popped payload %d", opIdx, names[i], pv, v)
			}
			if i == 0 {
				wantTime = tm
			} else if tm != wantTime {
				t.Fatalf("op %d: %s popped t=%d, %s popped t=%d", opIdx, names[0], wantTime, names[i], tm)
			}
			record(i, tm, v)
		}
		floor = wantTime
	}
	for opIdx, op := range ops {
		switch {
		case op >= 250 && bursts < maxBursts:
			bursts++
			for k := 0; k < 1000; k++ {
				push(floor + uint64(k*int(op)%4))
			}
		case op >= 240 && op < 250:
			back := 3 * uint64(op-239)
			if back > floor {
				back = floor
			}
			for _, q := range qs {
				q.ResetFloor()
			}
			floor -= back
			push(floor)
		case op%3 != 0 || qs[0].Len() == 0:
			// Push. The op byte picks an offset from the floor; every 7th
			// push jumps far past the wheel horizon to force overflow, and
			// later pops force promotion back into the slots.
			delta := uint64(op % 11)
			if op%7 == 0 {
				delta = 50 + uint64(op)
			}
			push(floor + delta)
		default:
			popAll(opIdx)
		}
		peekAll(opIdx)
	}
	// Drain completely, still in lockstep.
	for qs[0].Len() > 0 {
		popAll(-1)
		peekAll(-1)
	}
	for i, q := range qs {
		if q.Len() != 0 {
			t.Fatalf("%s not empty after lockstep drain", names[i])
		}
		if err := q.Err(); err != nil {
			t.Fatalf("%s latched an error on a legal sequence: %v", names[i], err)
		}
	}
	// Per-timestep payload multisets must match across implementations.
	for i := 1; i < len(qs); i++ {
		if len(popped[i]) != len(popped[0]) {
			t.Fatalf("%s saw %d distinct times, %s saw %d", names[0], len(popped[0]), names[i], len(popped[i]))
		}
		for tm, want := range popped[0] {
			got := popped[i][tm]
			if len(got) != len(want) {
				t.Fatalf("t=%d: %s payloads %v, %s payloads %v", tm, names[0], want, names[i], got)
			}
			for v, n := range want {
				if got[v] != n {
					t.Fatalf("t=%d payload %d: %s count %d, %s count %d", tm, v, names[0], n, names[i], got[v])
				}
			}
		}
	}
}

// TestLockstepEquivalence drives all three implementations with identical
// random operation sequences and demands identical pop-time sequences,
// covering the wheel's overflow demotion/promotion and the calendar's
// resizing on the same inputs.
func TestLockstepEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3000)
		rng.Read(ops)
		driveLockstep(t, ops)
	}
}

// TestLockstepBurstsAndRollbacks pins the sequences random bytes reach
// only sometimes: a thousand events on four times drained with pushes in
// between, and a floor reset into the past right after a peek has moved
// the wheel's cursor over promoted overflow events.
func TestLockstepBurstsAndRollbacks(t *testing.T) {
	for _, ops := range [][]byte{
		append([]byte{255, 251}, make([]byte, 2500)...),           // two bursts, then pops only
		{1, 3, 7, 14, 3, 245, 3, 3, 249, 250, 3, 3, 3, 241, 3, 3}, // overflow, reset, burst, reset
		{2, 0, 98, 91, 244, 3, 3, 3},                              // far pushes, peek, rewind below them
	} {
		driveLockstep(t, ops)
	}
}

// TestWheelPushBelowPeekedCursor is the floor bug behind the timewarp
// queue-implementation flake: a peek moves the cursor past the floor and
// promotes overflow events into slots, and the next legal push below the
// cursor must be able to demote them again.
func TestWheelPushBelowPeekedCursor(t *testing.T) {
	q := NewWheel[int](4)
	q.Push(0, 0)
	q.PopMin()
	q.Push(10, 1)
	q.Push(11, 2)
	q.PeekTime()
	q.Push(5, 3)
	if err := q.Err(); err != nil {
		t.Fatalf("legal push below the peeked cursor latched: %v", err)
	}
	for _, want := range []uint64{5, 10, 11} {
		if tm, _, ok := q.PopMin(); !ok || tm != want {
			t.Fatalf("popped %d,%v, want %d", tm, ok, want)
		}
	}
}

// FuzzLockstep lets the fuzzer search for operation sequences on which the
// implementations disagree. Seeds cover pure pushes, alternation, the
// far-jump (overflow) path, equal-time bursts and floor resets.
func FuzzLockstep(f *testing.F) {
	f.Add([]byte{1, 2, 4, 5, 7, 8})
	f.Add([]byte{0, 3, 6, 9, 12, 15})
	f.Add([]byte{7, 14, 21, 0, 3, 49, 3, 3})
	f.Add([]byte{255, 3, 3, 3, 252, 0, 245, 3, 3, 7, 242, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		driveLockstep(t, ops)
	})
}

// TestWheelWarmCycleZeroAllocs locks in the slot-reuse property: once the
// wheel has wrapped and its slot slices and overflow heap have grown, a
// steady-state pop/push cycle performs no allocation at all.
func TestWheelWarmCycleZeroAllocs(t *testing.T) {
	q := NewWheel[int](64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 512; i++ {
		q.Push(uint64(rng.Intn(61)), i)
	}
	// Warm across several full wraparounds, including overflow promotions.
	v := 0
	cycle := func() {
		tm, _, _ := q.PopMin()
		d := uint64(1 + v%7)
		if v%97 == 0 {
			d = 300 // beyond the horizon: overflow, promoted later
		}
		q.Push(tm+d, v)
		v++
	}
	for i := 0; i < 8192; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(2000, cycle); a != 0 {
		t.Fatalf("warm wheel pop/push cycle allocates %.1f per op, want 0", a)
	}
}

// TestHeapWarmCycleZeroAllocs is the same property for the baseline heap:
// with capacity grown, hold-model churn is allocation-free.
func TestHeapWarmCycleZeroAllocs(t *testing.T) {
	q := NewHeap[int]()
	for i := 0; i < 1024; i++ {
		q.Push(uint64(i%63), i)
	}
	v := 0
	cycle := func() {
		tm, _, _ := q.PopMin()
		q.Push(tm+uint64(1+v%9), v)
		v++
	}
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(2000, cycle); a != 0 {
		t.Fatalf("warm heap pop/push cycle allocates %.1f per op, want 0", a)
	}
}
