package logic

import "testing"

// x01z is the full domain of one wide lane.
var x01z = []Value{X, Zero, One, Z}

// scalarOps pairs each wide two-input table with its scalar reference.
var scalarOps = []struct {
	name   string
	wide   func(a, b Word) Word
	scalar func(a, b Value) Value
}{
	{"and", WideAnd, And},
	{"or", WideOr, Or},
	{"xor", WideXor, Xor},
	{"resolve", WideResolve, Resolve},
}

// TestWideTablesExhaustive checks every wide two-input operation against
// the scalar IEEE 1164 tables on all 16 value pairs, replicated across all
// 64 lane positions so shifted-mask bugs cannot hide.
func TestWideTablesExhaustive(t *testing.T) {
	for _, op := range scalarOps {
		for _, a := range x01z {
			for _, b := range x01z {
				want := op.scalar(a, b)
				if want.ToX01Z() != want {
					t.Fatalf("scalar %s(%v,%v)=%v escapes the X01Z subset", op.name, a, b, want)
				}
				for lane := 0; lane < Lanes; lane++ {
					// Surround the lane under test with a contrasting value
					// so cross-lane leakage is visible.
					bg := Splat(Not(a))
					got := op.wide(bg.Set(lane, a), Splat(b)).Get(lane)
					if got != want {
						t.Errorf("%s lane %d: wide(%v,%v)=%v, scalar %v", op.name, lane, a, b, got, want)
					}
				}
			}
		}
	}
	for _, a := range x01z {
		if got, want := WideNot(Splat(a)).Get(7), Not(a); got != want {
			t.Errorf("not: wide(%v)=%v, scalar %v", a, got, want)
		}
		if got, want := WideBuf(Splat(a)).Get(7), a.Buf(); got != want {
			t.Errorf("buf: wide(%v)=%v, scalar %v", a, got, want)
		}
	}
}

// TestWideFolds checks the N-ary folds against their scalar counterparts
// on mixed-lane operands, including the 0-operand identities.
func TestWideFolds(t *testing.T) {
	mk := func(vs ...Value) Word { return Pack(vs) }
	ops := []struct {
		name   string
		wide   func(...Word) Word
		scalar func(...Value) Value
	}{
		{"andN", WideAndN, AndN},
		{"orN", WideOrN, OrN},
		{"xorN", WideXorN, XorN},
		{"resolveN", WideResolveN, ResolveN},
	}
	cases := [][]Word{
		{},
		{mk(Zero, One, X, Z)},
		{mk(Zero, One, X, Z), mk(One, One, Zero, X)},
		{mk(Zero, One, X, Z), mk(One, One, Zero, X), mk(Z, Z, Z, Z)},
	}
	for _, op := range ops {
		for ci, ws := range cases {
			got := op.wide(ws...)
			for lane := 0; lane < 4; lane++ {
				args := make([]Value, len(ws))
				for i, w := range ws {
					args[i] = w.Get(lane)
				}
				want := op.scalar(args...).ToX01Z()
				if g := got.Get(lane); g != want {
					t.Errorf("%s case %d lane %d: wide %v, scalar %v", op.name, ci, lane, g, want)
				}
			}
		}
	}
}

// TestWordRoundTrip pins the encoding: Get inverts Set and Splat, and
// two-valued words round-trip through PackBits/Bits.
func TestWordRoundTrip(t *testing.T) {
	for _, v := range x01z {
		w := Splat(v)
		for lane := 0; lane < Lanes; lane += 13 {
			if got := w.Get(lane); got != v {
				t.Fatalf("Splat(%v).Get(%d) = %v", v, lane, got)
			}
		}
	}
	var w Word
	for lane, v := range []Value{One, Zero, X, Z, One, X} {
		w = w.Set(lane, v)
	}
	for lane, want := range []Value{One, Zero, X, Z, One, X} {
		if got := w.Get(lane); got != want {
			t.Errorf("lane %d = %v, want %v", lane, got, want)
		}
	}
	const bits = 0xdeadbeefcafef00d
	ones, known := PackBits(bits).Bits()
	if ones != bits || known != ^uint64(0) {
		t.Errorf("PackBits round trip: ones=%#x known=%#x", ones, known)
	}
	// Projection: nine-valued levels land on their X01Z projections.
	for _, v := range []Value{U, W, L, H, DontCare} {
		if got := Splat(v).Get(0); got != v.ToX01Z() {
			t.Errorf("Splat(%v).Get(0) = %v, want %v", v, got, v.ToX01Z())
		}
	}
}

// TestWordMasks pins the lane-mask accessors against Get.
func TestWordMasks(t *testing.T) {
	w := Pack([]Value{Zero, One, X, Z, One, Zero, X, Z})
	for lane := 0; lane < 8; lane++ {
		bit := uint64(1) << uint(lane)
		v := w.Get(lane)
		if got := w.IsHigh()&bit != 0; got != (v == One) {
			t.Errorf("IsHigh lane %d: %v for %v", lane, got, v)
		}
		if got := w.IsLow()&bit != 0; got != (v == Zero) {
			t.Errorf("IsLow lane %d: %v for %v", lane, got, v)
		}
		if got := w.Known()&bit != 0; got != (v == Zero || v == One) {
			t.Errorf("Known lane %d: %v for %v", lane, got, v)
		}
	}
	a := Pack([]Value{Zero, One, X, Z})
	b := Pack([]Value{Zero, X, X, One})
	sel := Select(0b0101, a, b)
	for lane := 0; lane < 4; lane++ {
		want := b.Get(lane)
		if lane%2 == 0 {
			want = a.Get(lane)
		}
		if got := sel.Get(lane); got != want {
			t.Errorf("Select lane %d = %v, want %v", lane, got, want)
		}
	}
}

// FuzzWideTables drives the wide tables with arbitrary plane words and
// verifies every lane of every operation against the scalar tables. All
// four plane-bit combinations are valid encodings, so any uint64 pair is a
// well-formed Word and the fuzzer explores the whole input space.
func FuzzWideTables(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(0), uint64(0), ^uint64(0))
	f.Add(uint64(0xaaaaaaaaaaaaaaaa), uint64(0x5555555555555555), uint64(0xffff0000ffff0000), uint64(0x00ffff0000ffff00))
	f.Add(uint64(0xdeadbeefcafef00d), uint64(0x0123456789abcdef), uint64(0xfedcba9876543210), uint64(0x1111111111111111))
	f.Fuzz(func(t *testing.T, aL, aH, bL, bH uint64) {
		a, b := Word{L: aL, H: aH}, Word{L: bL, H: bH}
		for _, op := range scalarOps {
			got := op.wide(a, b)
			for lane := 0; lane < Lanes; lane++ {
				want := op.scalar(a.Get(lane), b.Get(lane))
				if g := got.Get(lane); g != want {
					t.Fatalf("%s lane %d: wide(%v,%v)=%v, scalar %v",
						op.name, lane, a.Get(lane), b.Get(lane), g, want)
				}
			}
		}
		for lane := 0; lane < Lanes; lane++ {
			if got, want := WideNot(a).Get(lane), Not(a.Get(lane)); got != want {
				t.Fatalf("not lane %d: wide %v, scalar %v", lane, got, want)
			}
			if got, want := WideBuf(a).Get(lane), a.Get(lane).Buf(); got != want {
				t.Fatalf("buf lane %d: wide %v, scalar %v", lane, got, want)
			}
		}
	})
}
